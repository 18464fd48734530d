// Package exp regenerates the paper's evaluation artifacts: every
// experiment in DESIGN.md §5 (Figure 5, Formula 1, the beacon-loss
// analysis, and the quantitative versions of the §3/§4.2 claims) is a
// function producing a printable table and one row of Experiments.
// cmd/gsbench prints the rows it is asked for; TestEvaluationGolden
// renders all of them and compares the bytes with
// testdata/evaluation.golden, the one committed record of the evaluation;
// EXPERIMENTS.md discusses that record against the paper.
package exp

import (
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

// AddRow appends one formatted row.
func (t *Table) AddRow(cells ...string) { t.Rows = append(t.Rows, cells) }

// Note appends a footnote.
func (t *Table) Note(format string, args ...any) {
	t.Notes = append(t.Notes, fmt.Sprintf(format, args...))
}

// HostNote appends a line of this host's figures.
func (t *Table) HostNote(format string, args ...any) {
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

// each runs fn(0) … fn(n-1) on up to NumCPU goroutines and returns the
// error of the lowest index that failed. Every cell of a sweep is its own
// farm on its own kernel, so results do not depend on the execution order.
func each(n int, fn func(i int) error) error {
	errs := make([]error, n)
	sem := make(chan struct{}, runtime.NumCPU())
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			errs[i] = fn(i)
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
