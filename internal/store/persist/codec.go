package persist

import (
	"encoding/json"
	"fmt"
	"time"

	"shareinsights/internal/connector"
	"shareinsights/internal/dashboard"
	"shareinsights/internal/schema"
	"shareinsights/internal/share"
	"shareinsights/internal/table"
	"shareinsights/internal/vcs"
)

// Record type bytes. Each component directory uses type 1 for its
// incremental entry; snapshots carry the full component state.
const recEntry byte = 1

// tableBlob serializes a table: the row data in the compact SBIN wire
// format (shared with the sbin connector) plus the column definitions
// SBIN does not carry (payload paths).
type tableBlob struct {
	Columns []colDef `json:"columns"`
	SBIN    []byte   `json:"sbin"`
}

type colDef struct {
	Name string `json:"name"`
	Path string `json:"path,omitempty"`
}

func encodeTable(t *table.Table) tableBlob {
	cols := t.Schema().Columns()
	defs := make([]colDef, len(cols))
	for i, c := range cols {
		defs[i] = colDef{Name: c.Name, Path: c.Path}
	}
	return tableBlob{Columns: defs, SBIN: connector.EncodeSBIN(t)}
}

func decodeTable(b tableBlob) (*table.Table, error) {
	_, rows, err := connector.DecodeSBIN(b.SBIN)
	if err != nil {
		return nil, fmt.Errorf("persist: decode table: %w", err)
	}
	cols := make([]schema.Column, len(b.Columns))
	for i, c := range b.Columns {
		cols[i] = schema.Column{Name: c.Name, Path: c.Path}
	}
	s, err := schema.New(cols...)
	if err != nil {
		return nil, fmt.Errorf("persist: decode table schema: %w", err)
	}
	t := table.New(s)
	for _, r := range rows {
		t.Append(r)
	}
	return t, nil
}

// vcsRecord journals one repository mutation.
type vcsRecord struct {
	Repo  string    `json:"repo"`
	Entry vcs.Entry `json:"entry"`
}

// vcsSnapshot is the full state of every repository.
type vcsSnapshot struct {
	Repos []*vcs.RepoState `json:"repos"`
}

// catObject serializes one published object.
type catObject struct {
	Kind      string     `json:"kind"` // share.EntryPublish or share.EntryRemove
	Name      string     `json:"name"`
	Dashboard string     `json:"dashboard,omitempty"`
	Version   int        `json:"version,omitempty"`
	UpdatedAt time.Time  `json:"updated_at,omitzero"`
	Table     *tableBlob `json:"table,omitempty"`
}

func encodeCatEntry(e share.Entry) ([]byte, error) {
	rec := catObject{Kind: e.Kind, Name: e.Name}
	if e.Kind == share.EntryPublish {
		if e.Object == nil {
			return nil, fmt.Errorf("persist: publish entry without object")
		}
		blob := encodeTable(e.Object.Data)
		rec.Name = e.Object.Name
		rec.Dashboard = e.Object.Dashboard
		rec.Version = e.Object.Version
		rec.UpdatedAt = e.Object.UpdatedAt
		rec.Table = &blob
	}
	return json.Marshal(rec)
}

func decodeCatEntry(payload []byte) (share.Entry, error) {
	var rec catObject
	if err := json.Unmarshal(payload, &rec); err != nil {
		return share.Entry{}, fmt.Errorf("persist: decode catalog record: %w", err)
	}
	return catEntryOf(rec)
}

func catEntryOf(rec catObject) (share.Entry, error) {
	if rec.Kind == share.EntryRemove {
		return share.Entry{Kind: share.EntryRemove, Name: rec.Name}, nil
	}
	if rec.Table == nil {
		return share.Entry{}, fmt.Errorf("persist: catalog publish %q without table", rec.Name)
	}
	t, err := decodeTable(*rec.Table)
	if err != nil {
		return share.Entry{}, err
	}
	return share.Entry{Kind: share.EntryPublish, Object: &share.Object{
		Name:      rec.Name,
		Dashboard: rec.Dashboard,
		Schema:    t.Schema(),
		Data:      t,
		UpdatedAt: rec.UpdatedAt,
		Version:   rec.Version,
	}}, nil
}

// catSnapshot is the full catalog state.
type catSnapshot struct {
	Objects []catObject `json:"objects"`
}

// cacheRecord journals one last-good source table. Key and Pushdown
// carry the entry's payload content key and applied pushdown, so a
// recovered or replicated entry serves the next run without a decode;
// records written before keys existed lack them and miss once.
type cacheRecord struct {
	Dashboard string                    `json:"dashboard"`
	Source    string                    `json:"source"`
	Key       string                    `json:"key,omitempty"`
	Pushdown  *connector.PushdownResult `json:"pushdown,omitempty"`
	Table     tableBlob                 `json:"table"`
}

func encodeCacheRecord(dash, source string, e dashboard.SourceEntry) cacheRecord {
	cr := cacheRecord{Dashboard: dash, Source: source, Key: e.Key, Table: encodeTable(e.Table)}
	if e.Key != "" {
		cr.Pushdown = &e.Pushdown
	}
	return cr
}

// seedCacheRecord installs one decoded cache record (replay path).
func seedCacheRecord(cache *dashboard.SourceCache, cr cacheRecord) error {
	t, err := decodeTable(cr.Table)
	if err != nil {
		return err
	}
	e := dashboard.SourceEntry{Key: cr.Key, Table: t}
	if cr.Pushdown != nil {
		e.Pushdown = *cr.Pushdown
	}
	cache.Seed(cr.Dashboard, cr.Source, e)
	return nil
}

// cacheSnapshot is the full last-good cache state.
type cacheSnapshot struct {
	Entries []cacheRecord `json:"entries"`
}
