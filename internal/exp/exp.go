// Package exp regenerates the paper's evaluation artifacts: every
// experiment in DESIGN.md §5 (Figure 5, Formula 1, the beacon-loss
// analysis, and the quantitative versions of the §3/§4.2 claims) is one
// row of Experiments producing a printable table. Most rows are data for
// one trial runner (runner.go): cells, seeds, a farm, a fault schedule and
// a measure read from the flight recorder. The scale sweeps, the chaos
// sweep and the ingest storm keep drivers of their own. cmd/gsbench prints
// the rows it is asked for; TestEvaluationGolden renders all of them and
// compares the bytes with testdata/evaluation.golden, the one committed
// record of the evaluation; EXPERIMENTS.md discusses that record against
// the paper.
package exp

import (
	"errors"
	"fmt"
	"io"
	"runtime"
	"strings"
	"sync"
	"time"
)

// Table is a printable experiment result. Everything Fprint renders is
// the same on every host, so it can be compared byte for byte.
type Table struct {
	ID      string // experiment id, e.g. "E1/fig5"
	Title   string
	Columns []string
	Rows    [][]string
	Notes   []string
	// Host holds this host's wall-clock figures, one line each. Fprint
	// leaves them out; cmd/gsbench prints them after the table.
	Host []string
}

// addRow appends one formatted row.
func (t *Table) addRow(cells ...string) { t.Rows = append(t.Rows, cells) }

// note appends a footnote.
func (t *Table) note(format string, args ...any) {
	t.Notes = append(t.Notes, fmt.Sprintf(format, args...))
}

// hostNote appends a line of this host's figures.
func (t *Table) hostNote(format string, args ...any) {
	t.Host = append(t.Host, fmt.Sprintf(format, args...))
}

// Fprint renders the table, aligned, with a header rule. No line ends in
// spaces: the padding of a last or empty cell is dropped.
func (t *Table) Fprint(w io.Writer) {
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, r := range t.Rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	fmt.Fprintf(w, "== %s — %s ==\n", t.ID, t.Title)
	line := func(cells []string) {
		var b strings.Builder
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		fmt.Fprintln(w, strings.TrimRight(b.String(), " "))
	}
	line(t.Columns)
	total := 0
	for _, wd := range widths {
		total += wd + 2
	}
	fmt.Fprintln(w, strings.Repeat("-", total-2))
	for _, r := range t.Rows {
		line(r)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(w, "note: %s\n", n)
	}
	fmt.Fprintln(w)
}

// secs renders a duration as seconds with one decimal.
func secs(d time.Duration) string { return fmt.Sprintf("%.1f", d.Seconds()) }

// secs2 renders a duration as seconds with two decimals.
func secs2(d time.Duration) string { return fmt.Sprintf("%.2f", d.Seconds()) }

// millis2 renders a duration in milliseconds with two decimals.
func millis2(d time.Duration) string { return fmt.Sprintf("%.2f", durMs(d)) }

// each runs fn(0) … fn(n-1) on up to NumCPU goroutines and returns their
// errors joined, lowest index first. Every cell of a sweep is its own
// farm on its own kernel, so results do not depend on the execution order.
func each(n int, fn func(i int) error) error {
	errs := make([]error, n)
	sem := make(chan struct{}, runtime.NumCPU())
	var wg sync.WaitGroup
	for i := range n {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sem <- struct{}{}
			errs[i] = fn(i)
			<-sem
		}()
	}
	wg.Wait()
	return errors.Join(errs...)
}
