package exp

import (
	"sync"
	"testing"
)

// TestConcurrentTrialsMatchSequential runs two E4 cells on parallel
// goroutines, as the trial runner does, and holds each to the same cell
// run alone. State that trials share by accident — a package-level
// scratch slice, say — shows as a difference here and as a data race
// under -race, where the golden alone would only show a changed row.
func TestConcurrentTrialsMatchSequential(t *testing.T) {
	var cells []detCell
	for _, c := range detectors.cells {
		if c.loss == 0.10 && (c.kind == schemes[3].kind || c.consensus) {
			cells = append(cells, c)
		}
	}
	if len(cells) != 2 {
		t.Fatalf("picked %d cells, want randping and biring at 10%% loss", len(cells))
	}
	const seed = 21
	alone := make([]detection, len(cells))
	for i, c := range cells {
		if err := detectorPlan(c, seed, &alone[i]).run(); err != nil {
			t.Fatal(err)
		}
	}
	together := make([]detection, len(cells))
	errs := make([]error, len(cells))
	var wg sync.WaitGroup
	for i, c := range cells {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = detectorPlan(c, seed, &together[i]).run()
		}()
	}
	wg.Wait()
	for i, c := range cells {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		if !alone[i].detected || alone[i].falseSuspicions == 0 {
			t.Fatalf("%s at %.0f%% loss: %+v; the cell should detect the kill amid false suspicions", c.name, c.loss*100, alone[i])
		}
		if together[i] != alone[i] {
			t.Errorf("%s at %.0f%% loss: concurrent %+v, alone %+v", c.name, c.loss*100, together[i], alone[i])
		}
	}
}
