// Package persist wires the platform's stateful components — the
// flow-file VCS repositories, the shared-object catalog and the
// last-good source cache — to crash-consistent storage (internal/store).
//
// Each component gets its own WAL + snapshot directory. Mutations are
// journaled write-ahead: the component's journal hook appends to the
// WAL (fsynced) before the mutation is installed in memory, so an
// operation is acknowledged to callers only once it is durable. After a
// crash, recovery replays snapshot + WAL and the rebuilt state equals
// exactly the acknowledged prefix of operations.
//
// Compaction uses a shadow replica per component: every journaled entry
// is also applied to a shadow copy under the store's own lock, so a
// snapshot can be exported from the shadow at a WAL-size threshold
// without racing appends — no record can land in a WAL segment after
// the snapshot that supersedes it was cut.
package persist

import (
	"encoding/json"
	"fmt"
	"sort"
	"sync"
	"time"

	"shareinsights/internal/dashboard"
	"shareinsights/internal/obs"
	"shareinsights/internal/obs/history"
	"shareinsights/internal/share"
	"shareinsights/internal/store"
	"shareinsights/internal/vcs"
)

// Options configures a Store.
type Options struct {
	// Metrics receives the si_store_* instruments (optional).
	Metrics *obs.Registry
	// CompactBytes triggers a snapshot once a component's WAL exceeds
	// this many bytes (default 4 MiB).
	CompactBytes int
	// CompactRecords triggers a snapshot once a component's WAL holds
	// this many records (default 1024).
	CompactRecords int
	// Now overrides the clock (tests).
	Now func() time.Time
}

// component bundles one durable directory with its shadow-replica lock.
type component struct {
	mu  sync.Mutex
	dir *store.Dir
}

// Store is the platform's durable state: four journaled components
// sharing one data directory (vcs, catalog, cache, history).
type Store struct {
	vcsC, catC, cacheC component

	// recorder is the run-history flight recorder; it owns its own
	// store.Dir under "history" and journals itself (one WAL record
	// per run, snapshot at its own thresholds).
	recorder *history.Recorder

	opts Options
	now  func() time.Time

	// Shadow replicas, guarded by their component's mutex.
	shadowRepos   map[string]*vcs.Repo
	shadowCatalog *share.Catalog
	shadowCache   *dashboard.SourceCache

	// liveRepos are the journaled repositories handed to the server,
	// guarded by vcsC.mu.
	liveRepos map[string]*vcs.Repo

	recoveries []*store.Recovery
}

// ComponentStatus is one component's durability state for the health
// surface: the recovery outcome plus current WAL size, damage, and the
// shipping cursor (generation + committed offset) followers track
// (docs/REPLICATION.md).
type ComponentStatus struct {
	store.Recovery
	WALBytes        int    `json:"wal_bytes"`
	WALRecords      int    `json:"wal_records"`
	Generation      uint64 `json:"generation"`
	CommittedOffset int64  `json:"committed_offset"`
	Damaged         string `json:"damaged,omitempty"`
}

// Open opens (creating if needed) the durable store under fs and runs
// recovery for every component. Use store.NewOSFS(dataDir) in
// production; tests inject MemFS/FaultFS.
func Open(fs store.FS, opts Options) (*Store, error) {
	if opts.CompactBytes <= 0 {
		opts.CompactBytes = 4 << 20
	}
	if opts.CompactRecords <= 0 {
		opts.CompactRecords = 1024
	}
	s := &Store{
		opts:          opts,
		now:           opts.Now,
		shadowRepos:   map[string]*vcs.Repo{},
		shadowCatalog: share.NewCatalog(),
		shadowCache:   dashboard.NewSourceCache(),
		liveRepos:     map[string]*vcs.Repo{},
	}
	if s.now == nil {
		s.now = time.Now
	}
	var err error
	if s.vcsC.dir, err = s.recoverVCS(fs); err != nil {
		return nil, err
	}
	if s.catC.dir, err = s.recoverCatalog(fs); err != nil {
		s.vcsC.dir.Close()
		return nil, err
	}
	if s.cacheC.dir, err = s.recoverCache(fs); err != nil {
		s.vcsC.dir.Close()
		s.catC.dir.Close()
		return nil, err
	}
	if s.recorder, err = history.Open(fs, history.Options{Metrics: opts.Metrics, Now: s.now}); err != nil {
		s.vcsC.dir.Close()
		s.catC.dir.Close()
		s.cacheC.dir.Close()
		return nil, err
	}
	s.recoveries = append(s.recoveries, s.recorder.Recovery())
	// Live repositories are rebuilt from the shadows: distinct objects
	// (the journal hook applies entries to the shadow under the store
	// lock, which would deadlock if live and shadow were the same repo)
	// sharing immutable blob and commit payloads.
	for name, sh := range s.shadowRepos {
		live := vcs.FromState(sh.State())
		live.SetJournal(s.repoJournal(name))
		s.liveRepos[name] = live
	}
	return s, nil
}

func (s *Store) recoverVCS(fs store.FS) (*store.Dir, error) {
	dir, rec, err := store.OpenDir(fs, "vcs", "vcs", s.opts.Metrics)
	if err != nil {
		return nil, err
	}
	if len(rec.Snapshot) > 0 {
		var snap vcsSnapshot
		if err := json.Unmarshal(rec.Snapshot, &snap); err != nil {
			dir.Close()
			return nil, fmt.Errorf("persist: decode vcs snapshot: %w", err)
		}
		for _, st := range snap.Repos {
			s.shadowRepos[st.Name] = vcs.FromState(st)
		}
	}
	for _, r := range rec.Records {
		var vr vcsRecord
		if err := json.Unmarshal(r.Payload, &vr); err != nil {
			dir.Close()
			return nil, fmt.Errorf("persist: decode vcs record: %w", err)
		}
		sh := s.shadowRepos[vr.Repo]
		if sh == nil {
			sh = vcs.NewRepo(vr.Repo)
			s.shadowRepos[vr.Repo] = sh
		}
		if err := sh.Apply(vr.Entry); err != nil {
			dir.Close()
			return nil, fmt.Errorf("persist: replay vcs record for %q: %w", vr.Repo, err)
		}
	}
	rec.Records, rec.Snapshot = nil, nil // release replay buffers
	s.recoveries = append(s.recoveries, rec)
	return dir, nil
}

func (s *Store) recoverCatalog(fs store.FS) (*store.Dir, error) {
	dir, rec, err := store.OpenDir(fs, "catalog", "catalog", s.opts.Metrics)
	if err != nil {
		return nil, err
	}
	if len(rec.Snapshot) > 0 {
		var snap catSnapshot
		if err := json.Unmarshal(rec.Snapshot, &snap); err != nil {
			dir.Close()
			return nil, fmt.Errorf("persist: decode catalog snapshot: %w", err)
		}
		for _, o := range snap.Objects {
			e, err := catEntryOf(o)
			if err != nil {
				dir.Close()
				return nil, err
			}
			s.shadowCatalog.Apply(e)
		}
	}
	for _, r := range rec.Records {
		e, err := decodeCatEntry(r.Payload)
		if err != nil {
			dir.Close()
			return nil, err
		}
		s.shadowCatalog.Apply(e)
	}
	rec.Records, rec.Snapshot = nil, nil
	s.recoveries = append(s.recoveries, rec)
	return dir, nil
}

func (s *Store) recoverCache(fs store.FS) (*store.Dir, error) {
	dir, rec, err := store.OpenDir(fs, "cache", "cache", s.opts.Metrics)
	if err != nil {
		return nil, err
	}
	seed := func(cr cacheRecord) error { return seedCacheRecord(s.shadowCache, cr) }
	if len(rec.Snapshot) > 0 {
		var snap cacheSnapshot
		if err := json.Unmarshal(rec.Snapshot, &snap); err != nil {
			dir.Close()
			return nil, fmt.Errorf("persist: decode cache snapshot: %w", err)
		}
		for _, cr := range snap.Entries {
			if err := seed(cr); err != nil {
				dir.Close()
				return nil, err
			}
		}
	}
	for _, r := range rec.Records {
		var cr cacheRecord
		if err := json.Unmarshal(r.Payload, &cr); err != nil {
			dir.Close()
			return nil, fmt.Errorf("persist: decode cache record: %w", err)
		}
		if err := seed(cr); err != nil {
			dir.Close()
			return nil, err
		}
	}
	rec.Records, rec.Snapshot = nil, nil
	s.recoveries = append(s.recoveries, rec)
	return dir, nil
}

// repoJournal returns the write-ahead hook for one repository. It runs
// under the live repo's lock: append to the WAL, mirror into the shadow
// repo, and compact when the WAL crosses its threshold.
func (s *Store) repoJournal(name string) func(vcs.Entry) error {
	return func(e vcs.Entry) error {
		s.vcsC.mu.Lock()
		defer s.vcsC.mu.Unlock()
		payload, err := json.Marshal(vcsRecord{Repo: name, Entry: e})
		if err != nil {
			return err
		}
		if err := s.vcsC.dir.Append(store.Record{Type: recEntry, Payload: payload}); err != nil {
			return err
		}
		sh := s.shadowRepos[name]
		if sh == nil {
			sh = vcs.NewRepo(name)
			s.shadowRepos[name] = sh
		}
		if err := sh.Apply(e); err != nil {
			return err
		}
		s.maybeCompactVCSLocked()
		return nil
	}
}

func (s *Store) maybeCompactVCSLocked() {
	if !s.wantCompact(s.vcsC.dir) {
		return
	}
	names := make([]string, 0, len(s.shadowRepos))
	for n := range s.shadowRepos {
		names = append(names, n)
	}
	sort.Strings(names)
	snap := vcsSnapshot{Repos: make([]*vcs.RepoState, 0, len(names))}
	for _, n := range names {
		snap.Repos = append(snap.Repos, s.shadowRepos[n].State())
	}
	payload, err := json.Marshal(snap)
	if err != nil {
		return
	}
	// Best-effort: a failed compaction leaves the WAL long (or the dir
	// damaged), never loses acknowledged state.
	s.vcsC.dir.Snapshot(payload, s.now())
}

func (s *Store) wantCompact(d *store.Dir) bool {
	b, n := d.WALSize()
	return b >= s.opts.CompactBytes || n >= s.opts.CompactRecords
}

// catalogJournal is the catalog's write-ahead hook (runs under the live
// catalog's lock).
func (s *Store) catalogJournal(e share.Entry) error {
	s.catC.mu.Lock()
	defer s.catC.mu.Unlock()
	payload, err := encodeCatEntry(e)
	if err != nil {
		return err
	}
	if err := s.catC.dir.Append(store.Record{Type: recEntry, Payload: payload}); err != nil {
		return err
	}
	if err := s.shadowCatalog.Apply(e); err != nil {
		return err
	}
	if s.wantCompact(s.catC.dir) {
		if payload, err := json.Marshal(exportCatalog(s.shadowCatalog)); err == nil {
			s.catC.dir.Snapshot(payload, s.now())
		}
	}
	return nil
}

// cacheJournal is the last-good cache's write-ahead hook (runs under
// the live cache's lock; failures are tolerated by the caller).
func (s *Store) cacheJournal(dash, source string, e dashboard.SourceEntry) error {
	s.cacheC.mu.Lock()
	defer s.cacheC.mu.Unlock()
	payload, err := json.Marshal(encodeCacheRecord(dash, source, e))
	if err != nil {
		return err
	}
	if err := s.cacheC.dir.Append(store.Record{Type: recEntry, Payload: payload}); err != nil {
		return err
	}
	s.shadowCache.Seed(dash, source, e)
	if s.wantCompact(s.cacheC.dir) {
		if payload, err := json.Marshal(exportCache(s.shadowCache)); err == nil {
			s.cacheC.dir.Snapshot(payload, s.now())
		}
	}
	return nil
}

// WirePlatform seeds the platform's catalog and last-good cache with
// the recovered state and installs their write-ahead journals. Call
// once, before the platform serves traffic.
func (s *Store) WirePlatform(p *dashboard.Platform) error {
	for _, o := range s.shadowCatalog.Objects() {
		if err := p.Catalog.Apply(share.Entry{Kind: share.EntryPublish, Object: o}); err != nil {
			return err
		}
	}
	p.Catalog.SetJournal(s.catalogJournal)
	s.shadowCache.Entries(func(dash, src string, e dashboard.SourceEntry) { p.LastGood.Seed(dash, src, e) })
	p.LastGood.SetJournal(s.cacheJournal)
	p.History = s.recorder
	return nil
}

// History returns the durable run-history recorder.
func (s *Store) History() *history.Recorder { return s.recorder }

// Repos returns the recovered, journaled repositories by dashboard
// name. The server owns them from here on.
func (s *Store) Repos() map[string]*vcs.Repo {
	s.vcsC.mu.Lock()
	defer s.vcsC.mu.Unlock()
	out := make(map[string]*vcs.Repo, len(s.liveRepos))
	for n, r := range s.liveRepos {
		out[n] = r
	}
	return out
}

// AdoptRepo starts journaling a repository created after Open (a saved
// or forked dashboard): its current state is journaled as one record
// and every later mutation flows through the write-ahead hook. On
// journal failure the repo is left unjournaled (memory-only) and the
// error returned.
func (s *Store) AdoptRepo(r *vcs.Repo) error {
	st := r.State()
	r.SetJournal(s.repoJournal(r.Name))
	s.vcsC.mu.Lock()
	defer s.vcsC.mu.Unlock()
	payload, err := json.Marshal(vcsRecord{Repo: r.Name, Entry: vcs.Entry{Kind: vcs.EntryState, State: st}})
	if err != nil {
		r.SetJournal(nil)
		return err
	}
	if err := s.vcsC.dir.Append(store.Record{Type: recEntry, Payload: payload}); err != nil {
		r.SetJournal(nil)
		return fmt.Errorf("persist: adopt repo %q: %w", r.Name, err)
	}
	s.shadowRepos[r.Name] = vcs.FromState(st)
	s.liveRepos[r.Name] = r
	s.maybeCompactVCSLocked()
	return nil
}

// Metrics returns the registry the store's si_store_* instruments are
// registered on (nil when Options.Metrics was not set).
func (s *Store) Metrics() *obs.Registry { return s.opts.Metrics }

// Recoveries reports each component's recovery outcome, in open order
// (vcs, catalog, cache).
func (s *Store) Recoveries() []*store.Recovery { return s.recoveries }

// Status reports each component's durability state for the health
// surface.
func (s *Store) Status() []ComponentStatus {
	dirs := []*store.Dir{s.vcsC.dir, s.catC.dir, s.cacheC.dir}
	out := make([]ComponentStatus, 0, len(s.recoveries))
	for i, dir := range dirs {
		st := ComponentStatus{Recovery: *s.recoveries[i]}
		st.WALBytes, st.WALRecords = dir.WALSize()
		cur := dir.Cursor()
		st.Generation, st.CommittedOffset = cur.Gen, cur.Offset
		if err := dir.Damaged(); err != nil {
			st.Damaged = err.Error()
		}
		out = append(out, st)
	}
	// The history recorder owns its own Dir; it reports through its
	// Status accessor instead of a shared dirs slice.
	hst := ComponentStatus{Recovery: *s.recorder.Recovery()}
	var damaged error
	hst.WALBytes, hst.WALRecords, damaged = s.recorder.Status()
	if hdir := s.recorder.Dir(); hdir != nil {
		cur := hdir.Cursor()
		hst.Generation, hst.CommittedOffset = cur.Gen, cur.Offset
	}
	if damaged != nil {
		hst.Damaged = damaged.Error()
	}
	return append(out, hst)
}

// Close fsyncs and closes every component directory.
func (s *Store) Close() error {
	var first error
	for _, c := range []*component{&s.vcsC, &s.catC, &s.cacheC} {
		c.mu.Lock()
		if err := c.dir.Close(); err != nil && first == nil {
			first = err
		}
		c.mu.Unlock()
	}
	if err := s.recorder.Close(); err != nil && first == nil {
		first = err
	}
	return first
}
