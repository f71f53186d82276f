package dashboard

import (
	"strings"
	"sync"

	"shareinsights/internal/connector"
	"shareinsights/internal/table"
)

// SourceCache keeps the newest successfully loaded table per
// (dashboard, source). It is both the "last good" snapshot an
// `on_error: stale` source serves when its connector fails and the
// decoded-source store that lets a run skip decoding a payload it has
// decoded before: an entry loaded through a built-in format carries the
// payload's content key (connector.Loaded.Key), and a later load whose
// key is equal is served the stored table. It lives on the Platform,
// not the Dashboard, because the server recompiles dashboards on every
// flow-file save: the entry must survive recompilation to be useful.
type SourceCache struct {
	mu      sync.Mutex
	entries map[string]*sourceEntry
	journal func(dash, source string, e SourceEntry) error
}

// SourceEntry is one source's newest successfully loaded table.
type SourceEntry struct {
	// Key is the payload's content key; "" when the table was not
	// decoded by a built-in format (or was recorded without one).
	Key string
	// Table is the loaded table. A run served from the entry gets a
	// shallow clone, so sorting or growing what it was served leaves
	// the entry intact.
	Table *table.Table
	// Pushdown is what the connector applied of the run's pushdown
	// offer while producing Table.
	Pushdown connector.PushdownResult
}

type sourceEntry struct {
	SourceEntry
	// journaled reports that the journal holds this entry's content.
	journaled bool
}

// NewSourceCache returns an empty cache.
func NewSourceCache() *SourceCache {
	return &SourceCache{entries: map[string]*sourceEntry{}}
}

// SetJournal installs a write-ahead hook invoked before each Put that
// changes an entry's content, so the entries survive restarts
// (`on_error: stale` and decode skipping across processes). A journal
// failure does NOT abort the Put: the cache is an availability feature,
// so serving the freshest table in memory beats losing it — durability
// of the entry is best-effort, and the next Put of the same key retries
// the append.
func (c *SourceCache) SetJournal(fn func(dash, source string, e SourceEntry) error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.journal = fn
}

// Lookup returns the newest good table for a (dashboard, source) pair.
func (c *SourceCache) Lookup(dash, source string) (*table.Table, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.entries[dash+"\x00"+source]
	if !ok {
		return nil, false
	}
	return e.Table, true
}

// decoded returns a shallow clone of the entry's table and its pushdown
// result when the entry was loaded from a payload with content key key.
func (c *SourceCache) decoded(dash, source, key string) (*table.Table, connector.PushdownResult, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.entries[dash+"\x00"+source]
	if !ok || e.Key == "" || e.Key != key {
		return nil, connector.PushdownResult{}, false
	}
	return e.Table.CloneShallow(), e.Pushdown, true
}

// Put records a source's last successfully loaded table, journaling it
// first when a journal is installed. The table carries no content key,
// so the next keyed load decodes again — unless t is identical cell for
// cell to the stored keyed table, in which case the entry (key,
// pushdown result and journal state) is kept as it is.
func (c *SourceCache) Put(dash, source string, t *table.Table) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, ok := c.entries[dash+"\x00"+source]; ok && e.Key != "" && identical(e.Table, t) {
		e.Table = t
		if !e.journaled {
			c.journalLocked(dash, source, e)
		}
		return
	}
	c.putLocked(dash, source, SourceEntry{Table: t})
}

// put records a source's table decoded from a payload with content key
// e.Key, storing a shallow clone of e.Table. When the stored entry
// already holds that key it is left alone, and the WAL append is
// skipped unless the entry was never journaled successfully; skipped
// reports that case.
func (c *SourceCache) put(dash, source string, e SourceEntry) (skipped bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if cur, ok := c.entries[dash+"\x00"+source]; ok && e.Key != "" && cur.Key == e.Key {
		if cur.journaled {
			return true
		}
		c.journalLocked(dash, source, cur)
		return false
	}
	e.Table = e.Table.CloneShallow()
	c.putLocked(dash, source, e)
	return false
}

// putLocked installs a new entry and journals it.
func (c *SourceCache) putLocked(dash, source string, se SourceEntry) {
	e := &sourceEntry{SourceEntry: se}
	c.entries[dash+"\x00"+source] = e
	c.journalLocked(dash, source, e)
}

func (c *SourceCache) journalLocked(dash, source string, e *sourceEntry) {
	if c.journal != nil {
		// Best-effort; see SetJournal.
		e.journaled = c.journal(dash, source, e.SourceEntry) == nil
	}
}

// identical reports whether two tables hold the same cells (same kind
// and payload) in the same order under equal schemas.
func identical(a, b *table.Table) bool {
	if a.Len() != b.Len() || !a.Schema().Equal(b.Schema()) {
		return false
	}
	for i, ra := range a.Rows() {
		rb := b.Row(i)
		if len(ra) != len(rb) {
			return false
		}
		for j := range ra {
			if ra[j] != rb[j] {
				return false
			}
		}
	}
	return true
}

// Seed installs a recovered entry without journaling it (replay): it is
// already in the journal it was recovered from.
func (c *SourceCache) Seed(dash, source string, se SourceEntry) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.entries[dash+"\x00"+source] = &sourceEntry{SourceEntry: se, journaled: true}
}

// Reset drops every cached entry, keeping the journal hook. A replica
// applying a full bootstrap snapshot resets first so entries absent
// from the snapshot do not linger (docs/REPLICATION.md).
func (c *SourceCache) Reset() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.entries = map[string]*sourceEntry{}
}

// Each visits every cached table.
func (c *SourceCache) Each(fn func(dash, source string, t *table.Table)) {
	c.Entries(func(dash, source string, e SourceEntry) { fn(dash, source, e.Table) })
}

// Entries visits every cached entry (snapshot export).
func (c *SourceCache) Entries(fn func(dash, source string, e SourceEntry)) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for k, e := range c.entries {
		dash, source, _ := strings.Cut(k, "\x00")
		fn(dash, source, e.SourceEntry)
	}
}

// Len reports the number of cached snapshots.
func (c *SourceCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

// SourceHealth reports one source's outcome in the last run.
type SourceHealth struct {
	// Name is the data-object name.
	Name string `json:"name"`
	// Status is "ok", "stale" (served the last-good snapshot) or
	// "empty" (served a schema-conforming empty table).
	Status string `json:"status"`
	// Mode is the configured on_error policy: fail, stale or empty.
	Mode string `json:"mode"`
	// Attempts counts connector fetch attempts (retries = attempts-1).
	Attempts int `json:"attempts"`
	// Error is the suppressed load error when degraded ("" when ok).
	Error string `json:"error,omitempty"`
}

// RunHealth summarizes the last run for GET /dashboards/{name}/health.
type RunHealth struct {
	// Status is "ok", "degraded" (completed but at least one source
	// served fallback data), "error" (the run failed) or "never-run".
	Status string `json:"status"`
	// Error is the run error when Status is "error".
	Error string `json:"error,omitempty"`
	// Retries totals connector retry attempts across sources.
	Retries int `json:"retries"`
	// Sources details every source's outcome, in graph order.
	Sources []SourceHealth `json:"sources,omitempty"`
}

// Degraded reports whether the run completed on fallback data.
func (h RunHealth) Degraded() bool { return h.Status == "degraded" }

// Health returns the last run's health summary. Before the first run
// the status is "never-run".
func (d *Dashboard) Health() RunHealth {
	if d.health.Status == "" {
		return RunHealth{Status: "never-run"}
	}
	return d.health
}
