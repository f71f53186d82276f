// Package persist wires the platform's stateful components — the
// flow-file VCS repositories, the shared-object catalog, the last-good
// source cache and the run-history recorder — to crash-consistent
// storage (internal/store).
//
// Each component gets its own WAL + snapshot directory. Mutations are
// journaled write-ahead: the component's journal hook appends to the
// WAL (fsynced) before the mutation is installed in memory, so an
// operation is acknowledged to callers only once it is durable. After a
// crash, recovery replays snapshot + WAL and the rebuilt state equals
// exactly the acknowledged prefix of operations.
//
// One replay path serves every role. Components holds each component's
// in-memory state and its apply/export methods: leader recovery replays
// local segments through it, the leader's journal hooks mirror every
// acknowledged entry into it (the store's shadow replica), compaction
// and damage repair snapshot from it, and a follower (internal/replica)
// feeds it shipped frames. The shadow is updated under the component's
// journal lock, so a snapshot exported from it never races an append —
// no record can land in a WAL segment after the snapshot that
// supersedes it was cut.
package persist

import (
	"encoding/json"
	"fmt"
	"sync"
	"time"

	"shareinsights/internal/dashboard"
	"shareinsights/internal/obs"
	"shareinsights/internal/obs/history"
	"shareinsights/internal/share"
	"shareinsights/internal/store"
	"shareinsights/internal/vcs"
)

// compactBytes triggers a snapshot once a component's WAL exceeds this
// many bytes.
const compactBytes = 4 << 20

// Options configures a Store.
type Options struct {
	// Metrics receives the si_store_* instruments (optional).
	Metrics *obs.Registry
	// CompactRecords triggers a snapshot once a component's WAL holds
	// this many records (default 1024).
	CompactRecords int
	// Now overrides the clock (tests).
	Now func() time.Time
}

// Indexes into Store.comps, in ComponentNames order.
const (
	vcsComp = iota
	catalogComp
	cacheComp
	historyComp
)

// component is one durable directory with its recovery report and the
// journal lock that orders its appends with its shadow's updates.
type component struct {
	name string
	mu   sync.Mutex
	dir  *store.Dir
	rec  *store.Recovery
}

// Store is the platform's durable state: four journaled components
// sharing one data directory (vcs, catalog, cache, history).
type Store struct {
	// comps lists the components in ComponentNames order. The store
	// journals vcs, catalog and cache; history's directory belongs to
	// its recorder, which journals and compacts itself.
	comps []*component

	// shadow holds exactly the acknowledged vcs, catalog and cache
	// state, each part updated under its component's journal lock; its
	// recorder is the durable history recorder itself.
	shadow *Components

	opts Options
	now  func() time.Time

	// liveRepos are the journaled repositories handed to the server,
	// guarded by the vcs component's lock.
	liveRepos map[string]*vcs.Repo
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
	if opts.CompactRecords <= 0 {
		opts.CompactRecords = 1024
	}
	s := &Store{
		opts:      opts,
		now:       opts.Now,
		shadow:    newComponents(nil),
		liveRepos: map[string]*vcs.Repo{},
	}
	if s.now == nil {
		s.now = time.Now
	}
	for _, name := range ComponentNames[:historyComp] {
		dir, rec, err := store.OpenDir(fs, name, name, opts.Metrics)
		if err != nil {
			s.Close()
			return nil, err
		}
		s.comps = append(s.comps, &component{name: name, dir: dir, rec: rec})
		if err := s.shadow.Replay(name, rec.Snapshot, rec.Records); err != nil {
			s.Close()
			return nil, err
		}
		rec.Records, rec.Snapshot = nil, nil // release replay buffers
	}
	recorder, err := history.Open(fs, history.Options{Metrics: opts.Metrics, Now: s.now})
	if err != nil {
		s.Close()
		return nil, err
	}
	s.shadow.recorder = recorder
	s.comps = append(s.comps, &component{name: "history", dir: recorder.Dir(), rec: recorder.Recovery()})
	// Live repositories are rebuilt from the shadows: distinct objects
	// (the journal hook applies entries to the shadow under the store
	// lock, which would deadlock if live and shadow were the same repo)
	// sharing immutable blob and commit payloads.
	for name, sh := range s.shadow.repos {
		live := vcs.FromState(sh.State())
		live.SetJournal(s.repoJournal(name))
		s.liveRepos[name] = live
	}
	return s, nil
}

// journal is the write-ahead path of every leader mutation: append the
// record to c's WAL, mirror the acknowledged mutation into the shadow,
// and compact when the WAL crosses its threshold.
func (s *Store) journal(c *component, payload []byte, apply func() error) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := s.appendLocked(c, payload); err != nil {
		return err
	}
	if err := apply(); err != nil {
		return err
	}
	s.maybeCompactLocked(c)
	return nil
}

// appendLocked journals one entry. A directory damaged by an earlier
// failed append is first repaired with a snapshot of the shadow, which
// holds exactly the acknowledged state: it is updated only after a
// successful append.
func (s *Store) appendLocked(c *component, payload []byte) error {
	if c.dir.Damaged() != nil {
		if err := s.snapshotLocked(c); err != nil {
			return err
		}
	}
	return c.dir.Append(store.Record{Type: recEntry, Payload: payload})
}

// maybeCompactLocked snapshots the shadow once the WAL crosses a
// threshold. Best-effort: a failed compaction leaves the WAL long (or
// the dir damaged, repaired by the next append), never loses
// acknowledged state.
func (s *Store) maybeCompactLocked(c *component) {
	if b, n := c.dir.WALSize(); b >= compactBytes || n >= s.opts.CompactRecords {
		s.snapshotLocked(c)
	}
}

func (s *Store) snapshotLocked(c *component) error {
	payload, err := s.shadow.ExportSnapshot(c.name)
	if err != nil {
		return err
	}
	return c.dir.Snapshot(payload, s.now())
}

// repoJournal returns the write-ahead hook for one repository (runs
// under the live repo's lock).
func (s *Store) repoJournal(name string) func(vcs.Entry) error {
	return func(e vcs.Entry) error {
		payload, err := json.Marshal(vcsRecord{Repo: name, Entry: e})
		if err != nil {
			return err
		}
		return s.journal(s.comps[vcsComp], payload, func() error { return s.shadow.applyVCS(name, e) })
	}
}

// catalogJournal is the catalog's write-ahead hook (runs under the live
// catalog's lock).
func (s *Store) catalogJournal(e share.Entry) error {
	payload, err := encodeCatEntry(e)
	if err != nil {
		return err
	}
	return s.journal(s.comps[catalogComp], payload, func() error { return s.shadow.catalog.Apply(e) })
}

// cacheJournal is the last-good cache's write-ahead hook (runs under
// the live cache's lock; failures are tolerated by the caller).
func (s *Store) cacheJournal(dash, source string, e dashboard.SourceEntry) error {
	payload, err := json.Marshal(encodeCacheRecord(dash, source, e))
	if err != nil {
		return err
	}
	return s.journal(s.comps[cacheComp], payload, func() error {
		s.shadow.cache.Seed(dash, source, e)
		return nil
	})
}

// WirePlatform seeds the platform's catalog and last-good cache with
// the recovered state and installs their write-ahead journals. Call
// once, before the platform serves traffic.
func (s *Store) WirePlatform(p *dashboard.Platform) error {
	for _, o := range s.shadow.catalog.Objects() {
		if err := p.Catalog.Apply(share.Entry{Kind: share.EntryPublish, Object: o}); err != nil {
			return err
		}
	}
	p.Catalog.SetJournal(s.catalogJournal)
	s.shadow.cache.Entries(func(dash, src string, e dashboard.SourceEntry) { p.LastGood.Seed(dash, src, e) })
	p.LastGood.SetJournal(s.cacheJournal)
	p.History = s.shadow.recorder
	return nil
}

// History returns the durable run-history recorder.
func (s *Store) History() *history.Recorder { return s.shadow.recorder }

// Repos returns the recovered, journaled repositories by dashboard
// name. The server owns them from here on.
func (s *Store) Repos() map[string]*vcs.Repo {
	c := s.comps[vcsComp]
	c.mu.Lock()
	defer c.mu.Unlock()
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
	e := vcs.Entry{Kind: vcs.EntryState, State: r.State()}
	r.SetJournal(s.repoJournal(r.Name))
	payload, err := json.Marshal(vcsRecord{Repo: r.Name, Entry: e})
	if err == nil {
		err = s.journal(s.comps[vcsComp], payload, func() error {
			if err := s.shadow.applyVCS(r.Name, e); err != nil {
				return err
			}
			s.liveRepos[r.Name] = r
			return nil
		})
	}
	if err != nil {
		r.SetJournal(nil)
		return fmt.Errorf("persist: adopt repo %q: %w", r.Name, err)
	}
	return nil
}

// Metrics returns the registry the store's si_store_* instruments are
// registered on (nil when Options.Metrics was not set).
func (s *Store) Metrics() *obs.Registry { return s.opts.Metrics }

// Recoveries reports each component's recovery outcome, in
// ComponentNames order (vcs, catalog, cache, history).
func (s *Store) Recoveries() []*store.Recovery {
	out := make([]*store.Recovery, len(s.comps))
	for i, c := range s.comps {
		out[i] = c.rec
	}
	return out
}

// Status reports each component's durability state for the health
// surface.
func (s *Store) Status() []ComponentStatus {
	out := make([]ComponentStatus, 0, len(s.comps))
	for _, c := range s.comps {
		st := ComponentStatus{Recovery: *c.rec}
		st.WALBytes, st.WALRecords = c.dir.WALSize()
		cur := c.dir.Cursor()
		st.Generation, st.CommittedOffset = cur.Gen, cur.Offset
		if err := c.dir.Damaged(); err != nil {
			st.Damaged = err.Error()
		}
		out = append(out, st)
	}
	return out
}

// Close fsyncs and closes every component directory.
func (s *Store) Close() error {
	var first error
	for _, c := range s.comps {
		c.mu.Lock()
		if err := c.dir.Close(); err != nil && first == nil {
			first = err
		}
		c.mu.Unlock()
	}
	return first
}
