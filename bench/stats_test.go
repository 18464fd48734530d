package main

import (
	"encoding/json"
	"math"
	"regexp"
	"testing"
	"time"
)

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-12*math.Max(1, math.Abs(b)) }

func TestSummarize(t *testing.T) {
	cases := []struct {
		name                  string
		in                    []float64
		min, q1, med, q3, max float64
	}{
		{"single", []float64{7}, 7, 7, 7, 7, 7},
		{"pair", []float64{4, 2}, 2, 2.5, 3, 3.5, 4},
		{"odd", []float64{5, 1, 3}, 1, 2, 3, 4, 5},
		{"even unsorted", []float64{40, 10, 30, 20}, 10, 17.5, 25, 32.5, 40},
		{"five", []float64{1, 2, 3, 4, 100}, 1, 2, 3, 4, 100},
		{"ties", []float64{2, 2, 2, 2, 2, 2}, 2, 2, 2, 2, 2},
	}
	for _, c := range cases {
		in := append([]float64(nil), c.in...)
		s := summarize(c.in)
		if s.N != len(c.in) || !near(s.Min, c.min) || !near(s.Q1, c.q1) || !near(s.Median, c.med) ||
			!near(s.Q3, c.q3) || !near(s.Max, c.max) {
			t.Errorf("%s: got %+v", c.name, s)
		}
		for i := range in {
			if in[i] != c.in[i] {
				t.Errorf("%s: summarize reordered its input", c.name)
			}
		}
	}
	if s := summarize(nil); s != (summary{}) {
		t.Errorf("empty input: got %+v", s)
	}
	if got := (summary{Q1: 9, Median: 10, Q3: 11.5}).spread(); !near(got, 0.25) {
		t.Errorf("spread: got %v, want 0.25", got)
	}
	if got := (summary{}).spread(); got != 0 {
		t.Errorf("spread of nothing: got %v", got)
	}
}

func TestTimeBox(t *testing.T) {
	box := timeBox{box: 10 * time.Second, floor: 5, cap: 200}
	cases := []struct {
		reps    int
		elapsed time.Duration
		more    bool
		why     string
	}{
		{0, 0, true, "nothing run yet"},
		{4, 30 * time.Second, true, "box long over but the floor is not met"},
		{5, 30 * time.Second, false, "floor met and box over"},
		{5, 9 * time.Second, true, "floor met but the box is still open"},
		{60, 9999 * time.Millisecond, true, "just inside the box"},
		{60, 10 * time.Second, false, "box closes on the boundary"},
		{200, time.Second, false, "cap reached inside the box"},
		{199, time.Second, true, "one below the cap"},
	}
	for _, c := range cases {
		if got := box.more(c.reps, c.elapsed); got != c.more {
			t.Errorf("%s: more(%d, %v) = %v", c.why, c.reps, c.elapsed, got)
		}
	}
}

func TestSpanSelfTime(t *testing.T) {
	// run [0,100] ── rep [10,90] ── setup [10,20]
	//             │              └─ cell  [20,80] ── phase [30,50]
	//             └─ probes [90,100]
	spans := []benchSpan{
		{ID: 1, Parent: 0, Name: "run", StartUs: 0, EndUs: 100},
		{ID: 2, Parent: 1, Name: "rep", StartUs: 10, EndUs: 90},
		{ID: 3, Parent: 2, Name: "setup", StartUs: 10, EndUs: 20},
		{ID: 4, Parent: 2, Name: "cell", StartUs: 20, EndUs: 80},
		{ID: 5, Parent: 4, Name: "phase", StartUs: 30, EndUs: 50},
		{ID: 6, Parent: 1, Name: "probes", StartUs: 90, EndUs: 100},
	}
	selfTimes(spans)
	want := map[string]float64{"run": 10, "rep": 10, "setup": 10, "cell": 40, "phase": 20, "probes": 10}
	total := 0.0
	for _, sp := range spans {
		if !near(sp.SelfUs, want[sp.Name]) {
			t.Errorf("%s: self time %v, want %v", sp.Name, sp.SelfUs, want[sp.Name])
		}
		total += sp.SelfUs
	}
	// Self times partition the root: nothing counted twice, nothing lost.
	if !near(total, 100) {
		t.Errorf("self times sum to %v, want the root's 100", total)
	}
}

func TestSpanLogNesting(t *testing.T) {
	l := newSpanLog("w")
	root := l.begin("run")
	l.do("a", func() { l.do("b", func() {}) })
	l.end(root, 1)
	if len(l.spans) != 3 {
		t.Fatalf("got %d spans", len(l.spans))
	}
	parents := map[string]int{}
	for _, sp := range l.spans {
		parents[sp.Name] = sp.Parent
		if sp.Workload != "w" || sp.EndUs < sp.StartUs {
			t.Errorf("bad span %+v", sp)
		}
	}
	if parents["run"] != 0 || parents["a"] != 1 || parents["b"] != 2 {
		t.Errorf("parent links: %v", parents)
	}
	// A nil log is the untraced path: every call is a no-op.
	var off *spanLog
	id := off.begin("x")
	off.end(id, 1)
	ran := false
	off.do("y", func() { ran = true })
	if !ran {
		t.Error("nil span log must run the function and record nothing")
	}
}

func TestShares(t *testing.T) {
	cases := []struct {
		name  string
		ns    map[string]float64
		rep   float64
		want  map[string]float64
		unatt float64
	}{
		{"under-attributed", map[string]float64{"wire": 100, "netsim": 400}, 1000,
			map[string]float64{"wire": 0.1, "netsim": 0.4}, 0.5},
		{"over-attributed goes negative", map[string]float64{"core": 900, "sim": 300}, 1000,
			map[string]float64{"core": 0.9, "sim": 0.3}, -0.2},
		{"nothing attributed", map[string]float64{}, 1000, map[string]float64{}, 1},
		{"no rep time", map[string]float64{"wire": 5}, 0, map[string]float64{}, 1},
	}
	for _, c := range cases {
		got, unatt := shares(c.ns, c.rep)
		sum := unatt
		for l, v := range got {
			sum += v
			if !near(v, c.want[l]) {
				t.Errorf("%s: share.%s = %v, want %v", c.name, l, v, c.want[l])
			}
		}
		if len(got) != len(c.want) || !near(unatt, c.unatt) {
			t.Errorf("%s: got %v + unattributed %v", c.name, got, unatt)
		}
		if !near(sum, 1) {
			t.Errorf("%s: shares and remainder sum to %v, want 1", c.name, sum)
		}
	}
}

func TestDiffExact(t *testing.T) {
	a := map[string]float64{"sim_stable_s": 25.09982782, "fired": 2052672}
	same := map[string]float64{"sim_stable_s": 25.09982782, "fired": 2052672}
	if d := diffExact(a, same); len(d) != 0 {
		t.Errorf("equal sets differ: %v", d)
	}
	lastBit := map[string]float64{"sim_stable_s": math.Nextafter(25.09982782, 26), "fired": 2052672}
	if d := diffExact(a, lastBit); len(d) != 1 {
		t.Errorf("a one-ulp difference must show: %v", d)
	}
	if d := diffExact(a, map[string]float64{"fired": 2052672}); len(d) != 1 {
		t.Errorf("a missing key must show: %v", d)
	}
	if d := diffExact(map[string]float64{}, map[string]float64{"extra": 1}); len(d) != 1 {
		t.Errorf("an extra key must show: %v", d)
	}
}

func TestHalveKeepsEvenStride(t *testing.T) {
	got := halve([]int{0, 1, 2, 3, 4, 5, 6})
	want := []int{0, 2, 4, 6}
	if len(got) != len(want) {
		t.Fatalf("got %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
}

// TestManifest holds BENCHMARK.json's generator to the schema limits the
// driver refuses a file over.
func TestManifest(t *testing.T) {
	m := buildManifest()
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	use := func(n string) {
		if !name.MatchString(n) {
			t.Errorf("bad name %q", n)
		}
		if seen[n] {
			t.Errorf("name %q used twice", n)
		}
		seen[n] = true
	}
	if len(m.Workloads) < 2 || len(m.Workloads) > 8 {
		t.Errorf("%d workloads", len(m.Workloads))
	}
	for _, w := range m.Workloads {
		use(w.Name)
		if len(w.Why) == 0 || len(w.Why) > 200 {
			t.Errorf("%s: why is %d characters", w.Name, len(w.Why))
		}
	}
	if len(m.EndToEnd) < 1 || len(m.EndToEnd) > 16 {
		t.Errorf("%d end-to-end metrics", len(m.EndToEnd))
	}
	setup := false
	for _, d := range m.EndToEnd {
		use(d.Name)
		if !unit.MatchString(d.Unit) || (d.Better != "lower" && d.Better != "higher") {
			t.Errorf("%s: unit %q better %q", d.Name, d.Unit, d.Better)
		}
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v", d.Name, d.Bound)
		}
		if d.Name == "setup_s" && d.Unit == "s" && d.Better == "lower" {
			setup = true
		}
	}
	if !setup {
		t.Error("setup_s missing from the end-to-end metrics")
	}
	// The same-seed bounds are the ones the issue fixed; the manifest's
	// bounds may be wider (they must cover the spread over seeds) but
	// never tighter.
	repeat := map[string]float64{"setup_s": 0.08, "rep_s": 0.08, "cpu_s": 0.08, "peak_rss_mb": 0.05, "allocs_per_op": 0.02}
	if len(endToEnd) != len(repeat) {
		t.Errorf("%d end-to-end metrics, want %d", len(endToEnd), len(repeat))
	}
	for _, d := range endToEnd {
		if d.Repeat != repeat[d.Name] {
			t.Errorf("%s: same-seed bound %v, want %v", d.Name, d.Repeat, repeat[d.Name])
		}
		if d.Bound < d.Repeat {
			t.Errorf("%s: manifest bound %v below the same-seed bound %v", d.Name, d.Bound, d.Repeat)
		}
	}
	if len(m.PerLayer) < 1 || len(m.PerLayer) > 128 {
		t.Errorf("%d per-layer metrics", len(m.PerLayer))
	}
	for _, d := range m.PerLayer {
		use(d.Name)
		if !unit.MatchString(d.Unit) || (d.Better != "lower" && d.Better != "higher") {
			t.Errorf("%s: unit %q better %q", d.Name, d.Unit, d.Better)
		}
	}
	if m.RunSeconds < 1 || m.RunSeconds > 60 {
		t.Errorf("run_seconds %d", m.RunSeconds)
	}
	data, err := json.Marshal(m)
	if err != nil || len(data) > 64<<10 {
		t.Errorf("manifest is %d bytes (%v)", len(data), err)
	}
	// Every rendered set carries every table name, measured or not.
	if got := render(perLayer, map[string]float64{"share.wire": 0.5}); len(got) != len(perLayer) || got["share.wire"].Value != 0.5 {
		t.Error("render must print every per-layer name")
	}
	if s := strays(perLayer, map[string]float64{"share.wire": 1, "share.wier": 1}); len(s) != 1 || s[0] != "share.wier" {
		t.Errorf("strays: %v", s)
	}
}
