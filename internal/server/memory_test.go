package server

import (
	"fmt"
	"runtime/metrics"
	"strings"
	"testing"

	"shareinsights/internal/connector"
	"shareinsights/internal/dashboard"
)

// TestHeavyRunReleasesItsGarbage runs a dashboard that allocates far
// more than it keeps and checks that, once the run is answered, the
// freed heap has already been handed back to the OS. Left to the
// background scavenger, how much of it is still resident would depend
// on how much CPU the scavenger got since the run.
func TestHeavyRunReleasesItsGarbage(t *testing.T) {
	var b strings.Builder
	for i := 0; i < 200000; i++ {
		fmt.Fprintf(&b, "r%d,p%d,%d\n", i%7, i%13, i)
	}
	p := dashboard.NewPlatform()
	p.LastGood = nil // keep nothing of the decoded source alive
	p.Connectors = connector.NewRegistry(connector.Options{
		Mem: map[string][]byte{"sales.csv": []byte(b.String())},
	})
	s := New(p)
	if _, err := s.SaveDashboard("heavy", "tester", []byte(serverFlow)); err != nil {
		t.Fatal(err)
	}
	allocs0 := readMetric("/gc/heap/allocs:bytes")
	if _, err := s.Run("heavy"); err != nil {
		t.Fatal(err)
	}
	allocs := readMetric("/gc/heap/allocs:bytes") - allocs0
	live := readMetric("/gc/heap/live:bytes")
	if allocs <= live {
		t.Fatalf("the run allocated %d KiB against %d KiB live; want a run that allocates more than it keeps", allocs>>10, live>>10)
	}
	// Resident heap: objects (garbage included until a cycle sweeps
	// it), free pages the runtime still holds, and span slack.
	resident := readMetric("/memory/classes/heap/objects:bytes") +
		readMetric("/memory/classes/heap/free:bytes") +
		readMetric("/memory/classes/heap/unused:bytes")
	if resident > live+4<<20 {
		t.Errorf("%d KiB of heap resident after a run that allocated %d KiB and kept %d KiB live, want its garbage returned to the OS",
			resident>>10, allocs>>10, live>>10)
	}
}

func readMetric(name string) uint64 {
	s := []metrics.Sample{{Name: name}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}
