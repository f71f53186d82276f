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
	switch component {
	case "vcs":
		return s.vcsC.dir
	case "catalog":
		return s.catC.dir
	case "cache":
		return s.cacheC.dir
	case "history":
		return s.recorder.Dir()
	}
	return nil
}

// Components is the follower half of the replay path: the same
// in-memory objects Open rebuilds from local segments, fed shipped
// frames instead. All apply methods go through the exact decode logic
// local recovery uses, so a follower's state after applying a shipped
// prefix equals a leader recovery over that prefix.
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
	return &Components{
		repos:    map[string]*vcs.Repo{},
		catalog:  share.NewCatalog(),
		cache:    dashboard.NewSourceCache(),
		recorder: history.NewRecorder(history.Options{}),
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

// ApplySnapshot replaces one component's state with a leader bootstrap
// payload (nil = reset to empty).
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

// ApplyRecord folds one shipped WAL record into a component — the same
// apply path local recovery replays.
func (c *Components) ApplyRecord(component string, rec store.Record) error {
	switch component {
	case "vcs":
		var vr vcsRecord
		if err := json.Unmarshal(rec.Payload, &vr); err != nil {
			return fmt.Errorf("persist: decode vcs record: %w", err)
		}
		c.mu.Lock()
		r := c.repos[vr.Repo]
		created := r == nil
		if created {
			r = vcs.NewRepo(vr.Repo)
			c.repos[vr.Repo] = r
		}
		fn := c.onRepos
		var copied map[string]*vcs.Repo
		if created && fn != nil {
			copied = c.reposCopyLocked()
		}
		c.mu.Unlock()
		if err := r.Apply(vr.Entry); err != nil {
			return fmt.Errorf("persist: replay vcs record for %q: %w", vr.Repo, err)
		}
		if copied != nil {
			fn(copied)
		}
		return nil
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

// ExportSnapshot serializes one component's full state in its snapshot
// format — the payload the follower writes into its own replica WAL at
// compaction, replayable by ApplySnapshot.
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

// exportCatalog builds the catalog snapshot payload (shared with the
// leader's compaction path in catalogJournal).
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
