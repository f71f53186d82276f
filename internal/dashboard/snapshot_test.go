package dashboard

import (
	"testing"

	"shareinsights/internal/table"
)

// TestSourceCacheSnapshotIsolation pins the fix for the Rows() aliasing
// footgun: last-good snapshots are stored (and served) as shallow
// clones, so a consumer mutating a run's live tables through the
// Rows() alias — sorting, reordering — cannot retroactively corrupt
// the cached copy that a later degraded run will serve.
func TestSourceCacheSnapshotIsolation(t *testing.T) {
	proto := &flakyProtocol{payload: []byte("east,10\nwest,20\n")}
	p := degradePlatform(t, proto)
	d := compileDegrade(t, p, "stale")
	if err := d.Run(); err != nil {
		t.Fatalf("healthy run: %v", err)
	}
	snap, ok := p.LastGood.Lookup("sales_dash", "sales")
	if !ok {
		t.Fatal("healthy run stored no last-good snapshot")
	}
	want := snap.Fingerprint()

	// A consumer structurally mutates the live source table.
	live, ok := d.Result().Table("sales")
	if !ok {
		t.Fatal("run result lost the source table")
	}
	rows := live.Rows()
	rows[0], rows[1] = rows[1], rows[0]
	if err := live.Sort(table.SortKey{Column: "amount", Desc: true}); err != nil {
		t.Fatal(err)
	}
	if got := snap.Fingerprint(); got != want {
		t.Fatalf("mutating the live table corrupted the snapshot: fingerprint %s -> %s", want, got)
	}

	// The degraded run serves the snapshot; mutating what it served
	// must not corrupt the cache either.
	proto.fail.Store(true)
	if err := d.Run(); err != nil {
		t.Fatalf("degraded run: %v", err)
	}
	served, ok := d.Result().Table("sales")
	if !ok {
		t.Fatal("degraded run lost the source table")
	}
	if err := served.Sort(table.SortKey{Column: "amount", Desc: true}); err != nil {
		t.Fatal(err)
	}
	if got := snap.Fingerprint(); got != want {
		t.Fatalf("mutating the served stale table corrupted the snapshot: fingerprint %s -> %s", want, got)
	}
}
