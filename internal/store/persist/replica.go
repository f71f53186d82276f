package persist

import (
	"encoding/json"
	"fmt"
	"sort"
	"sync"

	"shareinsights/internal/dashboard"
	"shareinsights/internal/obs/history"
	"shareinsights/internal/share"
	"shareinsights/internal/store"
	"shareinsights/internal/vcs"
)

// ComponentNames lists the replicated component directories in ship
// order. Followers apply them independently; the order only fixes how
// status surfaces enumerate them.
var ComponentNames = []string{"vcs", "catalog", "cache", "history"}

// Dir exposes one component's durable directory for WAL shipping
// (docs/REPLICATION.md). Nil for unknown components.
func (s *Store) Dir(component string) *store.Dir {
	for _, c := range s.comps {
		if c.name == component {
			return c.dir
		}
	}
	return nil
}

// Components holds each component's in-memory state behind the one
// replay path every role shares: leader recovery replays local segments
// through Replay, the leader's journal hooks mirror acknowledged
// entries into its shadow Components, leader compaction and a
// follower's replica WAL snapshot through ExportSnapshot, and a follower
// applies shipped frames through ApplyRecord. A follower's state after
// applying a shipped prefix therefore equals a leader recovery over
// that prefix.
//
// The contained objects are internally locked (vcs.Repo, share.Catalog,
// dashboard.SourceCache, history.Recorder), so readers may hold them
// while the pull loop applies new frames.
type Components struct {
	mu       sync.Mutex
	repos    map[string]*vcs.Repo
	catalog  *share.Catalog
	cache    *dashboard.SourceCache
	recorder *history.Recorder
	onRepos  func(map[string]*vcs.Repo)
}

// NewComponents returns an empty follower state.
func NewComponents() *Components {
	return newComponents(history.NewRecorder(history.Options{}))
}

// newComponents returns empty state around a given recorder (the
// leader passes its durable one).
func newComponents(recorder *history.Recorder) *Components {
	return &Components{
		repos:    map[string]*vcs.Repo{},
		catalog:  share.NewCatalog(),
		cache:    dashboard.NewSourceCache(),
		recorder: recorder,
	}
}

// OnRepos installs a callback fired (with a copy of the full repo map)
// whenever the repository set changes — a shipped record created a repo,
// or a bootstrap replaced the set. The server uses it to refresh its
// routing table.
func (c *Components) OnRepos(fn func(map[string]*vcs.Repo)) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.onRepos = fn
}

func (c *Components) reposCopyLocked() map[string]*vcs.Repo {
	out := make(map[string]*vcs.Repo, len(c.repos))
	for n, r := range c.repos {
		out[n] = r
	}
	return out
}

// Repos returns the replicated repositories by name (a copy).
func (c *Components) Repos() map[string]*vcs.Repo {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.reposCopyLocked()
}

// Catalog returns the replicated shared-object catalog.
func (c *Components) Catalog() *share.Catalog { return c.catalog }

// Cache returns the replicated last-good source cache.
func (c *Components) Cache() *dashboard.SourceCache { return c.cache }

// History returns the replicated run-history recorder (memory-only:
// the follower's durability lives in its replica WAL, not here).
func (c *Components) History() *history.Recorder { return c.recorder }

// ApplySnapshot replaces one component's state with a snapshot payload
// (nil = reset to empty).
func (c *Components) ApplySnapshot(component string, payload []byte) error {
	switch component {
	case "vcs":
		repos := map[string]*vcs.Repo{}
		if len(payload) > 0 {
			var snap vcsSnapshot
			if err := json.Unmarshal(payload, &snap); err != nil {
				return fmt.Errorf("persist: decode vcs snapshot: %w", err)
			}
			for _, st := range snap.Repos {
				repos[st.Name] = vcs.FromState(st)
			}
		}
		c.mu.Lock()
		c.repos = repos
		fn := c.onRepos
		copied := c.reposCopyLocked()
		c.mu.Unlock()
		if fn != nil {
			fn(copied)
		}
		return nil
	case "catalog":
		return reloadCatalog(c.catalog, payload)
	case "cache":
		c.cache.Reset()
		if len(payload) == 0 {
			return nil
		}
		var snap cacheSnapshot
		if err := json.Unmarshal(payload, &snap); err != nil {
			return fmt.Errorf("persist: decode cache snapshot: %w", err)
		}
		for _, cr := range snap.Entries {
			if err := seedCacheRecord(c.cache, cr); err != nil {
				return err
			}
		}
		return nil
	case "history":
		return c.recorder.ApplySnapshot(payload)
	}
	return fmt.Errorf("persist: unknown component %q", component)
}

// Replay replaces one component's state with a snapshot payload plus
// the records written after it — local recovery and follower bootstrap.
func (c *Components) Replay(component string, snapshot []byte, recs []store.Record) error {
	if err := c.ApplySnapshot(component, snapshot); err != nil {
		return err
	}
	for _, r := range recs {
		if err := c.ApplyRecord(component, r); err != nil {
			return err
		}
	}
	return nil
}

// ApplyRecord folds one WAL record into a component.
func (c *Components) ApplyRecord(component string, rec store.Record) error {
	switch component {
	case "vcs":
		var vr vcsRecord
		if err := json.Unmarshal(rec.Payload, &vr); err != nil {
			return fmt.Errorf("persist: decode vcs record: %w", err)
		}
		return c.applyVCS(vr.Repo, vr.Entry)
	case "catalog":
		e, err := decodeCatEntry(rec.Payload)
		if err != nil {
			return err
		}
		return c.catalog.Apply(e)
	case "cache":
		var cr cacheRecord
		if err := json.Unmarshal(rec.Payload, &cr); err != nil {
			return fmt.Errorf("persist: decode cache record: %w", err)
		}
		return seedCacheRecord(c.cache, cr)
	case "history":
		return c.recorder.ApplyRecord(rec)
	}
	return fmt.Errorf("persist: unknown component %q", component)
}

// applyVCS folds one repository entry into the named repo, creating
// it on first sight — the one vcs mutation path of recovery, the
// leader's journal hook and follower replay.
func (c *Components) applyVCS(name string, e vcs.Entry) error {
	c.mu.Lock()
	r := c.repos[name]
	created := r == nil
	if created {
		r = vcs.NewRepo(name)
		c.repos[name] = r
	}
	fn := c.onRepos
	var copied map[string]*vcs.Repo
	if created && fn != nil {
		copied = c.reposCopyLocked()
	}
	c.mu.Unlock()
	if err := r.Apply(e); err != nil {
		return fmt.Errorf("persist: replay vcs record for %q: %w", name, err)
	}
	if copied != nil {
		fn(copied)
	}
	return nil
}

// ExportSnapshot serializes one component's full state in its snapshot
// format, replayable by ApplySnapshot — the payload of leader
// compaction and damage repair, and of the follower's own replica-WAL
// snapshots.
func (c *Components) ExportSnapshot(component string) ([]byte, error) {
	switch component {
	case "vcs":
		c.mu.Lock()
		names := make([]string, 0, len(c.repos))
		for n := range c.repos {
			names = append(names, n)
		}
		sort.Strings(names)
		snap := vcsSnapshot{Repos: make([]*vcs.RepoState, 0, len(names))}
		for _, n := range names {
			snap.Repos = append(snap.Repos, c.repos[n].State())
		}
		c.mu.Unlock()
		return json.Marshal(snap)
	case "catalog":
		return json.Marshal(exportCatalog(c.catalog))
	case "cache":
		return json.Marshal(exportCache(c.cache))
	case "history":
		return c.recorder.ExportSnapshot()
	}
	return nil, fmt.Errorf("persist: unknown component %q", component)
}

// reloadCatalog replaces a catalog's contents with a snapshot payload:
// names absent from the snapshot are removed, present ones re-applied.
func reloadCatalog(cat *share.Catalog, payload []byte) error {
	var snap catSnapshot
	if len(payload) > 0 {
		if err := json.Unmarshal(payload, &snap); err != nil {
			return fmt.Errorf("persist: decode catalog snapshot: %w", err)
		}
	}
	keep := make(map[string]bool, len(snap.Objects))
	for _, o := range snap.Objects {
		keep[o.Name] = true
	}
	for _, name := range cat.Names() {
		if !keep[name] {
			if err := cat.Apply(share.Entry{Kind: share.EntryRemove, Name: name}); err != nil {
				return err
			}
		}
	}
	for _, o := range snap.Objects {
		e, err := catEntryOf(o)
		if err != nil {
			return err
		}
		if err := cat.Apply(e); err != nil {
			return err
		}
	}
	return nil
}

// exportCatalog builds the catalog snapshot payload.
func exportCatalog(cat *share.Catalog) catSnapshot {
	objs := cat.Objects()
	snap := catSnapshot{Objects: make([]catObject, 0, len(objs))}
	for _, o := range objs {
		blob := encodeTable(o.Data)
		snap.Objects = append(snap.Objects, catObject{
			Kind: share.EntryPublish, Name: o.Name, Dashboard: o.Dashboard,
			Version: o.Version, UpdatedAt: o.UpdatedAt, Table: &blob,
		})
	}
	return snap
}

// exportCache builds the cache snapshot payload, sorted for stable
// output.
func exportCache(cache *dashboard.SourceCache) cacheSnapshot {
	snap := cacheSnapshot{}
	cache.Entries(func(d, src string, e dashboard.SourceEntry) {
		snap.Entries = append(snap.Entries, encodeCacheRecord(d, src, e))
	})
	sort.Slice(snap.Entries, func(a, b int) bool {
		if snap.Entries[a].Dashboard != snap.Entries[b].Dashboard {
			return snap.Entries[a].Dashboard < snap.Entries[b].Dashboard
		}
		return snap.Entries[a].Source < snap.Entries[b].Source
	})
	return snap
}
