package main

import (
	"fmt"
	"strings"
	"testing"

	"shareinsights/internal/gen"
)

func TestTicketsExpected(t *testing.T) {
	payload := []byte("1,2014-01-01,3,access,\"x\",2\n2,2014-01-01,4,access,\"y\",5\n3,2014-01-02,1,hardware,\"z\",9\n4,2014-01-02,3,hardware,\"z\",1\n")
	w, err := ticketsExpected(payload)
	if err != nil {
		t.Fatal(err)
	}
	if err := sameSums(w.daysByCategory, map[string]float64{"access": 7, "hardware": 1}); err != nil {
		t.Error(err)
	}
	if err := sameSums(w.countByDay, map[string]float64{"2014-01-01": 2, "2014-01-02": 1}); err != nil {
		t.Error(err)
	}
}

func TestKeyedSumsDetectsMismatch(t *testing.T) {
	want := map[string]float64{"access": 7, "hardware": 1}
	for body, ok := range map[string]bool{
		`[{"category":"access","days":7},{"category":"hardware","days":1}]`:                           true,
		`[{"category":"access","days":7},{"category":"hardware","days":2}]`:                           false,
		`[{"category":"access","days":7}]`:                                                            false,
		`[{"category":"access","days":7},{"category":"hardware","days":1},{"category":"x","days":0}]`: false,
	} {
		got, err := keyedSums([]byte(body), "category", "days")
		if err != nil {
			t.Fatal(err)
		}
		if err := sameSums(got, want); (err == nil) != ok {
			t.Errorf("%s: sameSums error %v, want match=%v", body, err, ok)
		}
	}
	if _, err := keyedSums([]byte(`[{"category":"a","days":1},{"category":"a","days":2}]`), "category", "days"); err == nil {
		t.Error("duplicate key accepted")
	}
	got, err := keyedSums([]byte(`[{"created":"2014-01-05T00:00:00Z","count":3}]`), "created", "count")
	if err != nil || got["2014-01-05"] != 3 {
		t.Errorf("timestamp key not trimmed to its date: %v %v", got, err)
	}
}

func TestDigestIgnoresOrderAndCatchesChanges(t *testing.T) {
	a, err := digestJSON([]byte(`[{"x":1,"y":"a"},{"x":2,"y":"b"}]`))
	if err != nil {
		t.Fatal(err)
	}
	b, _ := digestJSON([]byte(`[{"y":"b","x":2},{"y":"a","x":1}]`))
	if a != b {
		t.Error("digest depends on row or key order")
	}
	for _, changed := range []string{
		`[{"x":1,"y":"a"},{"x":3,"y":"b"}]`,
		`[{"x":1,"y":"a"}]`,
		`[{"x":1,"y":"a"},{"x":2,"y":"b"},{"x":2,"y":"b"}]`,
		`[{"x":1,"y":"a"},{"x":2,"y":null}]`,
	} {
		c, _ := digestJSON([]byte(changed))
		if c == a {
			t.Errorf("digest missed a change: %s", changed)
		}
	}
}

func TestViewerHTMLOracle(t *testing.T) {
	ref := &reference{
		players: []map[string]any{
			{"date": "2013-05-02", "player": "MS Dhoni", "count": 2.0},
			{"date": "2013-05-03", "player": "MS Dhoni", "count": 3.0},
			{"date": "2013-05-09", "player": "Virat Kohli", "count": 4.0},
		},
		words: []map[string]any{
			{"date": "2013-05-02", "word": "dhoni", "count": 5.0},
		},
	}
	page := func(dhoni, kohli string) []byte {
		return []byte(`<div class="widget wordcloud" data-widget="player_tweets">` +
			`<span style="font-size:12px" data-key="MS Dhoni" title="MS Dhoni: ` + dhoni + `">MS Dhoni</span> ` +
			kohli + `</div><div class="widget wordcloud" data-widget="word_tweets">` +
			`<span data-key="dhoni" title="dhoni: 5">dhoni</span> </div>`)
	}
	ok := htmlSample{lo: "2013-05-02", hi: "2013-05-03", body: page("5", "")}
	if err := checkViewerHTML(ok, ref); err != nil {
		t.Fatalf("matching page rejected: %v", err)
	}
	for name, h := range map[string]htmlSample{
		"wrong size":        {lo: "2013-05-02", hi: "2013-05-03", body: page("6", "")},
		"extra label":       {lo: "2013-05-02", hi: "2013-05-03", body: page("5", `<span title="Virat Kohli: 4">x</span>`)},
		"range not applied": {lo: "2013-05-02", hi: "2013-05-02", body: page("5", "")},
		"no cloud":          {lo: "2013-05-02", hi: "2013-05-03", body: []byte("<html></html>")},
	} {
		if err := checkViewerHTML(h, ref); err == nil {
			t.Errorf("%s: mismatch not detected", name)
		}
	}
}

// TestReferenceRunPublishes runs the fresh oracle's reference on a small
// batch: every published object must come back, and a different batch
// must change the digests.
func TestReferenceRunPublishes(t *testing.T) {
	batch := func(seed int64) []byte { return gen.TweetsCSV(gen.TweetsOptions{Seed: seed, N: 300}) }
	a, err := referencePublished(batch(1))
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != len(publishedObjects) {
		t.Fatalf("reference published %d objects, want %d", len(a), len(publishedObjects))
	}
	b, err := referencePublished(batch(2))
	if err != nil {
		t.Fatal(err)
	}
	if a["players_tweets"] == b["players_tweets"] {
		t.Error("different batches gave the same players_tweets digest")
	}
	ref, err := referenceTables(batch(1))
	if err != nil {
		t.Fatal(err)
	}
	if len(ref.players) == 0 || len(ref.words) == 0 {
		t.Fatal("reference rows missing")
	}
	var sb strings.Builder
	sb.WriteString("[")
	for i, p := range gen.IPLPlayers {
		if i > 0 {
			sb.WriteString(",")
		}
		fmt.Fprintf(&sb, `{"player":%q,"noOfTweets":0}`, p.Name)
	}
	sb.WriteString("]")
	if err := checkPlayerTotals([]byte(sb.String()), ref); err == nil {
		t.Error("zeroed player totals accepted")
	}
}

func TestScheduleMix(t *testing.T) {
	reqs := schedule(7, 20000)
	n := map[string]int{}
	for _, r := range reqs {
		n[r.kind]++
		if r.kind == "select" && (r.lo > r.hi || r.lo < iplDates[0] || r.hi > iplDates[len(iplDates)-1]) {
			t.Fatalf("bad select range %v", r)
		}
	}
	for kind, share := range map[string]float64{"select": 0.60, "html": 0.20, "ds": 0.15, "run": 0.05} {
		got := float64(n[kind]) / float64(len(reqs))
		if got < share-0.02 || got > share+0.02 {
			t.Errorf("%s share %.3f, want about %.2f", kind, got, share)
		}
	}
	again := schedule(7, 20000)
	for i := range reqs {
		if reqs[i] != again[i] {
			t.Fatal("schedule is not determined by its seed")
		}
	}
}
