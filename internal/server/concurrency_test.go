package server

import (
	"fmt"
	"net/http"
	"strings"
	"sync"
	"testing"
)

// TestConcurrentSelectAndRenderOnOneDashboard drives selections and
// page renders at the same live dashboard from several goroutines.
// Selections rebind the dependent widgets' data while renders walk it,
// so under -race this fails unless the handlers serialize their access
// to the dashboard.
func TestConcurrentSelectAndRenderOnOneDashboard(t *testing.T) {
	s, ts := newTestServer(t)
	flow := serverFlow + `
W:
  regions:
    type: List
    source: D.by_region
    text: region

  totals:
    type: BarChart
    source: D.by_region | T.pick_region
    x: region
    y: total

T:
  pick_region:
    type: filter_by
    filter_by: [region]
    filter_source: W.regions
    filter_val: [text]

L:
  rows:
    - [span4: W.regions, span8: W.totals]
`
	if _, err := s.SaveDashboard("busy", "tester", []byte(flow)); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run("busy"); err != nil {
		t.Fatal(err)
	}
	base := ts.URL + "/dashboards/busy"
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				var req *http.Request
				switch (g + i) % 3 {
				case 0:
					region := []string{"east", "west"}[i%2]
					req, _ = http.NewRequest(http.MethodPost, base+"/select/regions", strings.NewReader(fmt.Sprintf(`{"values":[%q]}`, region)))
				case 1:
					req, _ = http.NewRequest(http.MethodGet, base+"/html", nil)
				default:
					req, _ = http.NewRequest(http.MethodGet, base+"/ds/by_region", nil)
				}
				resp, err := http.DefaultClient.Do(req)
				if err != nil {
					errs <- err
					return
				}
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					errs <- fmt.Errorf("%s %s = %d", req.Method, req.URL.Path, resp.StatusCode)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
