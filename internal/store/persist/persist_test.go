package persist

import (
	"fmt"
	"testing"
	"time"

	"shareinsights/internal/dashboard"
	"shareinsights/internal/schema"
	"shareinsights/internal/store"
	"shareinsights/internal/table"
	"shareinsights/internal/value"
	"shareinsights/internal/vcs"
)

func sampleTable(n int) *table.Table {
	t := table.New(schema.MustFromNames("k", "v"))
	for i := 0; i < n; i++ {
		t.AppendValues(value.NewInt(int64(i)), value.NewString(fmt.Sprintf("row-%d", i)))
	}
	return t
}

func pathTable() *table.Table {
	s, _ := schema.New(schema.Column{Name: "loc", Path: "user.location"}, schema.Column{Name: "n"})
	t := table.New(s)
	t.AppendValues(value.NewString("sf"), value.NewInt(7))
	return t
}

func fixedClock() func() time.Time {
	at := time.Date(2015, 6, 1, 0, 0, 0, 0, time.UTC)
	return func() time.Time { at = at.Add(time.Second); return at }
}

func TestTableCodecRoundTrip(t *testing.T) {
	for _, tb := range []*table.Table{sampleTable(3), sampleTable(0), pathTable()} {
		got, err := decodeTable(encodeTable(tb))
		if err != nil {
			t.Fatal(err)
		}
		if !got.Equal(tb) {
			t.Fatalf("decoded table differs: %v vs %v", got.Rows(), tb.Rows())
		}
		// Payload paths survive (SBIN alone drops them).
		if got.Schema().String() != tb.Schema().String() {
			t.Fatalf("schema %v != %v", got.Schema(), tb.Schema())
		}
	}
}

func TestStoreRoundTrip(t *testing.T) {
	fs := store.NewMemFS()
	st, err := Open(fs, Options{Now: fixedClock()})
	if err != nil {
		t.Fatal(err)
	}
	p := dashboard.NewPlatform()
	if err := st.WirePlatform(p); err != nil {
		t.Fatal(err)
	}

	repo := vcs.NewRepo("sales-dash")
	repo.SetClock(fixedClock())
	if _, err := repo.Commit(vcs.DefaultBranch, "ann", "initial", []byte("flow v1")); err != nil {
		t.Fatal(err)
	}
	if err := st.AdoptRepo(repo); err != nil {
		t.Fatal(err)
	}
	if _, err := repo.Commit(vcs.DefaultBranch, "bob", "tweak", []byte("flow v2")); err != nil {
		t.Fatal(err)
	}
	if err := repo.Branch(vcs.DefaultBranch, "dev"); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Catalog.Publish("sales-dash", "sales", sampleTable(4)); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Catalog.Publish("sales-dash", "sales", sampleTable(5)); err != nil {
		t.Fatal(err)
	}
	p.LastGood.Put("sales-dash", "raw", pathTable())
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	st2, err := Open(fs, Options{Now: fixedClock()})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	repos := st2.Repos()
	got, ok := repos["sales-dash"]
	if !ok {
		t.Fatalf("repo not recovered; have %v", repos)
	}
	if !got.Equal(repo) {
		t.Fatalf("recovered repo differs:\n%v\nvs\n%v", got.State(), repo.State())
	}
	p2 := dashboard.NewPlatform()
	if err := st2.WirePlatform(p2); err != nil {
		t.Fatal(err)
	}
	obj, ok := p2.Catalog.Resolve("sales")
	if !ok || obj.Version != 2 || obj.Data.Len() != 5 || obj.Dashboard != "sales-dash" {
		t.Fatalf("recovered object: %+v ok=%v", obj, ok)
	}
	cached, ok := p2.LastGood.Lookup("sales-dash", "raw")
	if !ok || !cached.Equal(pathTable()) {
		t.Fatalf("recovered cache entry: %v ok=%v", cached, ok)
	}
	// The recovered store keeps journaling: new mutations survive a
	// further restart.
	if _, err := got.Commit("dev", "cat", "post-restart", []byte("flow v3")); err != nil {
		t.Fatal(err)
	}
	st2.Close()
	st3, err := Open(fs, Options{Now: fixedClock()})
	if err != nil {
		t.Fatal(err)
	}
	defer st3.Close()
	if !st3.Repos()["sales-dash"].Equal(got) {
		t.Fatal("third-generation recovery differs")
	}
}

func TestStoreCompactionRoundTrip(t *testing.T) {
	fs := store.NewMemFS()
	st, err := Open(fs, Options{Now: fixedClock(), CompactRecords: 2})
	if err != nil {
		t.Fatal(err)
	}
	p := dashboard.NewPlatform()
	st.WirePlatform(p)
	repo := vcs.NewRepo("d")
	repo.SetClock(fixedClock())
	if err := st.AdoptRepo(repo); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if _, err := repo.Commit(vcs.DefaultBranch, "a", fmt.Sprintf("c%d", i), []byte(fmt.Sprintf("content %d", i))); err != nil {
			t.Fatal(err)
		}
		if _, err := p.Catalog.Publish("d", "obj", sampleTable(i+1)); err != nil {
			t.Fatal(err)
		}
		p.LastGood.Put("d", "src", sampleTable(i))
	}
	st.Close()

	st2, err := Open(fs, Options{Now: fixedClock()})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	if !st2.Repos()["d"].Equal(repo) {
		t.Fatal("recovered repo differs after compactions")
	}
	// Compaction kept the WAL bounded: replay was snapshot + a short tail.
	for _, rec := range st2.Recoveries() {
		if rec.RecordCount > 4 {
			t.Errorf("%s: %d records replayed; compaction not bounding the WAL", rec.Component, rec.RecordCount)
		}
	}
	p2 := dashboard.NewPlatform()
	st2.WirePlatform(p2)
	obj, ok := p2.Catalog.Resolve("obj")
	if !ok || obj.Version != 10 || obj.Data.Len() != 10 {
		t.Fatalf("recovered object after compaction: %+v", obj)
	}
	cached, ok := p2.LastGood.Lookup("d", "src")
	if !ok || cached.Len() != 9 {
		t.Fatalf("recovered cache after compaction: %v", cached)
	}
}

func TestStatusReportsDamage(t *testing.T) {
	ffs := store.NewFaultFS()
	st, err := Open(ffs, Options{Now: fixedClock()})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	p := dashboard.NewPlatform()
	st.WirePlatform(p)
	ffs.Inject(store.Fault{Op: store.OpSync, Path: "catalog/", Mode: store.FailIO})
	if _, err := p.Catalog.Publish("d", "obj", sampleTable(1)); err == nil {
		t.Fatal("publish acknowledged despite journal fsync failure")
	}
	if _, ok := p.Catalog.Resolve("obj"); ok {
		t.Fatal("unjournaled publish visible in catalog")
	}
	var catDamaged bool
	for _, cs := range st.Status() {
		if cs.Component == "catalog" && cs.Damaged != "" {
			catDamaged = true
		}
		if cs.Component == "vcs" && cs.Damaged != "" {
			t.Error("vcs damaged by a catalog fault")
		}
	}
	if !catDamaged {
		t.Fatalf("catalog damage not surfaced: %+v", st.Status())
	}
	// The fault was one-shot: the next publish repairs the WAL with a
	// snapshot of the acknowledged state and is acknowledged itself.
	if _, err := p.Catalog.Publish("d", "obj", sampleTable(2)); err != nil {
		t.Fatalf("publish after a transient fault: %v", err)
	}
	if obj, ok := p.Catalog.Resolve("obj"); !ok || obj.Data.Len() != 2 {
		t.Fatalf("repaired publish not visible: %+v ok=%v", obj, ok)
	}
	for _, cs := range st.Status() {
		if cs.Damaged != "" {
			t.Errorf("%s still damaged after repair: %s", cs.Component, cs.Damaged)
		}
	}
}
