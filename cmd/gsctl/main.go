// Command gsctl is an interactive console for driving a simulated farm:
// build a farm, advance virtual time, inspect the discovered topology,
// inject faults, and trigger reconfigurations — for exploring protocol
// behaviour by hand, or for playing a scripted fault timeline.
//
// Usage:
//
//	gsctl [-admin 2] [-domains acme:2:3,globex:2:3] [-uniform N[:adapters]] [-journal] [-trace=false]
//
// Commands: help, run <seconds>, play <file>, status, groups, events [n],
// verify, journal, metrics, trace, timeline, health, quit. Any other line
// is an operation of the chaos schedule language (internal/check),
// injected at the current instant: kill <node>, restart <node>,
// fail <adapter> <fail-recv|fail-send|fail-stop|healthy> [for <d>],
// switch-off <switch> [for <d>], move <node> to <domain>,
// partition <segment> [for <d>], drop <segment> <loss> [for <d>],
// failover [for <d>]. "play <file>" reads a whole schedule in the same
// language ("@60s kill acme-be-01" ... "settle 80s"), injects each op at
// its time from now and runs through the settle period.
// With -journal every node keeps a state journal; the journal command
// shows each node's replay position and who the warm standby is.
// The flight recorder is on by default: "trace [n]" shows the last n
// protocol transitions, "trace txns" the correlated 2PC timelines,
// "trace <filter>" records matching a kind/node substring, and
// "trace json" the raw dump; "timeline" stitches the recorder into
// end-to-end incident spans and "timeline <ref|incident>" renders one
// span's waterfall; "health" summarizes per-node daemon and adapter
// state.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"

	gulfstream "repro"
	"repro/internal/check"
)

func main() {
	var (
		admin    = flag.Int("admin", 2, "administrative nodes")
		domains  = flag.String("domains", "acme:2:3,globex:2:3", "domains as name:frontends:backends,...")
		uniform  = flag.String("uniform", "", "uniform nodes as N[:adaptersPerNode] (replaces -domains)")
		journals = flag.Bool("journal", false, "give every node a state journal (inspect with the journal command)")
		traceOn  = flag.Bool("trace", true, "record protocol transitions in the flight recorder (inspect with the trace command)")
		traceCap = flag.Int("trace-cap", 0, "flight recorder ring capacity (0 = default)")
		seed     = flag.Int64("seed", 1, "simulation seed")
	)
	flag.Parse()

	spec := gulfstream.Spec{Seed: *seed, AdminNodes: *admin, StartSkew: 2 * time.Second,
		RecordEvents: true, Journal: *journals, Trace: *traceOn, TraceCapacity: *traceCap}
	if *uniform != "" {
		parts := strings.SplitN(*uniform, ":", 2)
		n, err := strconv.Atoi(parts[0])
		if err != nil {
			fatalf("bad -uniform: %v", err)
		}
		spec.UniformNodes = n
		spec.UniformAdapters = 3
		if len(parts) == 2 {
			if spec.UniformAdapters, err = strconv.Atoi(parts[1]); err != nil {
				fatalf("bad -uniform: %v", err)
			}
		}
	} else {
		for _, d := range strings.Split(*domains, ",") {
			p := strings.Split(d, ":")
			if len(p) != 3 {
				fatalf("bad domain %q (want name:fe:be)", d)
			}
			fe, err1 := strconv.Atoi(p[1])
			be, err2 := strconv.Atoi(p[2])
			if err1 != nil || err2 != nil {
				fatalf("bad domain %q", d)
			}
			spec.Domains = append(spec.Domains, gulfstream.DomainSpec{Name: p[0], FrontEnds: fe, BackEnds: be})
		}
	}
	f, err := gulfstream.NewFarm(spec)
	if err != nil {
		fatalf("build: %v", err)
	}
	f.Start()
	fmt.Printf("farm built (%d nodes); daemons booting. type 'run 30' then 'groups'. 'help' lists commands.\n", len(f.Nodes))
	repl(f, os.Stdin, os.Stdout)
}

// repl drives the farm from a command stream; factored out of main so it
// can be tested with scripted input.
func repl(f *gulfstream.Farm, in io.Reader, out io.Writer) {
	sc := bufio.NewScanner(in)
	eventCursor := 0
	for {
		fmt.Fprintf(out, "gsctl t=%v> ", f.Sched.Now().Truncate(time.Millisecond))
		if !sc.Scan() {
			return
		}
		args := strings.Fields(sc.Text())
		if len(args) == 0 {
			continue
		}
		switch args[0] {
		case "quit", "exit":
			return
		case "help":
			fmt.Fprintln(out, "run <s> | play <schedule file> | status | groups | events [n] |")
			fmt.Fprintln(out, "verify | journal | metrics | trace [n|txns|json|<filter>] |")
			fmt.Fprintln(out, "timeline [ref|incident] | health | quit")
			fmt.Fprintln(out, "faults, injected now: kill <node> | restart <node> | move <node> to <domain> |")
			fmt.Fprintln(out, "fail <adapter> <fail-recv|fail-send|fail-stop|healthy> [for <d>] |")
			fmt.Fprintln(out, "switch-off <sw> [for <d>] | partition <segment> [for <d>] |")
			fmt.Fprintln(out, "drop <segment> <loss> [for <d>] | failover [for <d>]")
		case "run":
			secs := 10.0
			if len(args) > 1 {
				secs, _ = strconv.ParseFloat(args[1], 64)
			}
			f.RunFor(time.Duration(secs * float64(time.Second)))
			fmt.Fprintf(out, "advanced to t=%v\n", f.Sched.Now())
		case "play":
			if len(args) != 2 {
				fmt.Fprintln(out, "wrong arguments (try help)")
				continue
			}
			text, err := os.ReadFile(args[1])
			if err != nil {
				fmt.Fprintf(out, "error: %v\n", err)
				continue
			}
			sched, err := check.Parse(string(text))
			if err != nil {
				fmt.Fprintf(out, "error: %s: %v\n", args[1], err)
				continue
			}
			sched.Run(f)
			fmt.Fprintf(out, "played %d ops; advanced to t=%v\n", len(sched.Ops), f.Sched.Now())
		case "status":
			c := f.ActiveCentral()
			if c == nil {
				fmt.Fprintln(out, "no active GulfStream Central yet")
				continue
			}
			fmt.Fprintf(out, "central active; %d groups; stable=%v\n", c.GroupCount(), c.Stable())
		case "groups":
			c := f.ActiveCentral()
			if c == nil {
				fmt.Fprintln(out, "no active central")
				continue
			}
			groups := c.Groups()
			leaders := make([]gulfstream.IP, 0, len(groups))
			for l := range groups {
				leaders = append(leaders, l)
			}
			sort.Slice(leaders, func(i, j int) bool { return leaders[i] < leaders[j] })
			for _, l := range leaders {
				seg, _ := f.SegmentOf(l)
				fmt.Fprintf(out, "  %v (%s): %v\n", l, seg, groups[l])
			}
		case "events":
			n := 20
			if len(args) > 1 {
				n, _ = strconv.Atoi(args[1])
			}
			log := f.Bus.Log()
			start := eventCursor
			if len(log)-start > n {
				start = len(log) - n
			}
			for _, e := range log[start:] {
				fmt.Fprintf(out, "  %v\n", e)
			}
			eventCursor = len(log)
		case "verify":
			c := f.ActiveCentral()
			if c == nil {
				fmt.Fprintln(out, "no active central")
				continue
			}
			ms := c.Verify()
			if len(ms) == 0 {
				fmt.Fprintln(out, "verification: clean")
			}
			for _, m := range ms {
				fmt.Fprintf(out, "  %v\n", m)
			}
		case "journal":
			if len(f.Journals) == 0 {
				fmt.Fprintln(out, "no journals (start gsctl with -journal)")
				continue
			}
			names := make([]string, 0, len(f.Journals))
			for name := range f.Journals {
				names = append(names, name)
			}
			sort.Strings(names)
			for _, name := range names {
				j := f.Journals[name]
				role := ""
				if d := f.Daemons[name]; d != nil && d.Running() && d.HostingCentral() {
					role = "  <- hosts Central"
				} else if j.Loaded() {
					role = "  <- warm standby"
				}
				fmt.Fprintf(out, "  %-12s epoch %-3d seq %-5d groups %-3d loaded=%v%s\n",
					name, j.Epoch(), j.Seq(), len(j.State().Groups), j.Loaded(), role)
			}
		case "metrics":
			fmt.Fprint(out, f.Metrics.Summary())
		case "trace":
			cmdTrace(f, out, args[1:])
		case "timeline":
			cmdTimeline(f, out, args[1:])
		case "health":
			cmdHealth(f, out)
		default:
			// Everything else is one op of the schedule language.
			op, err := check.ParseOp(sc.Text())
			if err == nil {
				err = check.Apply(f, op)
			}
			if err != nil {
				fmt.Fprintf(out, "error: %v (try help)\n", err)
			}
		}
	}
}

// cmdTrace renders the flight recorder: the last n records, the
// correlated 2PC transaction timelines, a raw JSON dump, or records
// matching a kind/node substring filter.
func cmdTrace(f *gulfstream.Farm, out io.Writer, args []string) {
	if !f.Trace.Enabled() && f.Trace.Total() == 0 {
		fmt.Fprintln(out, "flight recorder disabled (start gsctl without -trace=false)")
		return
	}
	n := 20
	mode := ""
	if len(args) > 0 {
		if v, err := strconv.Atoi(args[0]); err == nil {
			n = v
		} else {
			mode = args[0]
		}
	}
	switch mode {
	case "json":
		if err := f.Trace.WriteJSON(out); err != nil {
			fmt.Fprintf(out, "error: %v\n", err)
		}
	case "txns":
		txns := gulfstream.TraceTxns(f.Trace.Snapshot())
		if len(txns) > n {
			txns = txns[len(txns)-n:]
		}
		if len(txns) == 0 {
			fmt.Fprintln(out, "no 2PC transactions recorded")
			return
		}
		for _, t := range txns {
			fmt.Fprintf(out, "txn %s (%d records)\n", t.ID(), len(t.Records))
			for _, rec := range t.Records {
				fmt.Fprintf(out, "    %v\n", rec)
			}
		}
	case "":
		recs := f.Trace.Snapshot()
		if len(recs) > n {
			recs = recs[len(recs)-n:]
		}
		fmt.Fprintf(out, "%d captured, %d dropped; showing %d:\n",
			f.Trace.Total(), f.Trace.Dropped(), len(recs))
		for _, rec := range recs {
			fmt.Fprintf(out, "  %v\n", rec)
		}
	default:
		recs := f.Trace.Filter(func(rec gulfstream.TraceRecord) bool {
			return strings.Contains(rec.Kind.String(), mode) || rec.Node == mode
		})
		if len(recs) > n {
			recs = recs[len(recs)-n:]
		}
		fmt.Fprintf(out, "%d matching %q:\n", len(recs), mode)
		for _, rec := range recs {
			fmt.Fprintf(out, "  %v\n", rec)
		}
	}
}

// cmdTimeline stitches the flight recorder into end-to-end incident
// spans. With no argument it lists every span's one-line summary; with
// a span ref ("s3") or a Central incident id it renders that span's
// waterfall — one row per milestone with the latency attributed to the
// stage and a bar positioned on the span's own time axis.
func cmdTimeline(f *gulfstream.Farm, out io.Writer, args []string) {
	if !f.Trace.Enabled() && f.Trace.Total() == 0 {
		fmt.Fprintln(out, "flight recorder disabled (start gsctl without -trace=false)")
		return
	}
	spans := gulfstream.StitchSpans(f.Trace.Snapshot(), f)
	if len(spans) == 0 {
		fmt.Fprintln(out, "no spans stitched (no incidents in the retained trace window)")
		return
	}
	if len(args) == 0 {
		for _, sp := range spans {
			extra := ""
			if sp.Incident != 0 {
				extra = fmt.Sprintf("  incident=%d@%s", sp.Incident, sp.Central)
			}
			if !sp.Complete() {
				extra += fmt.Sprintf("  MISSING %v", sp.Missing)
			}
			fmt.Fprintf(out, "  %v%s\n", sp, extra)
		}
		fmt.Fprintln(out, "timeline <ref|incident> renders one span's waterfall")
		return
	}
	var sel *gulfstream.Span
	for _, sp := range spans {
		if sp.Ref == args[0] || (sp.Incident != 0 && strconv.FormatUint(sp.Incident, 10) == args[0]) {
			sel = sp
			break
		}
	}
	if sel == nil {
		fmt.Fprintf(out, "no span %q (bare timeline lists refs and incident ids)\n", args[0])
		return
	}
	fmt.Fprintf(out, "%v\n", sel)
	if sel.Incident != 0 {
		fmt.Fprintf(out, "  incident %d issued by Central on %s", sel.Incident, sel.Central)
		if sel.Closed {
			fmt.Fprintf(out, ", closed at %v", sel.ClosedAt)
		}
		fmt.Fprintln(out)
	}
	if sel.Domain != "" {
		fmt.Fprintf(out, "  serving domain: %s\n", sel.Domain)
	}
	const width = 44
	total := sel.Total()
	start := sel.Start()
	col := func(t time.Duration) int {
		if total <= 0 {
			return 0
		}
		c := int(float64(t-start) / float64(total) * width)
		if c > width {
			c = width
		}
		return c
	}
	for i, m := range sel.Milestones {
		from := m.T
		if i > 0 {
			from = sel.Milestones[i-1].T
		}
		a, b := col(from), col(m.T)
		bar := strings.Repeat(" ", a) + "|" + strings.Repeat("=", b-a)
		fmt.Fprintf(out, "  %-12s t=%-12v +%-10v %-20s %s\n",
			m.Stage, m.T, m.T-from, m.Node, bar)
	}
	if !sel.Complete() {
		fmt.Fprintf(out, "  missing stages: %v\n", sel.Missing)
	}
}

// cmdHealth summarizes each node: daemon liveness, per-adapter committed
// view, leadership, and who hosts Central.
func cmdHealth(f *gulfstream.Farm, out io.Writer) {
	names := make([]string, 0, len(f.Nodes))
	for name := range f.Nodes {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		d := f.Daemons[name]
		status := "up"
		if !d.Running() {
			status = "DOWN"
		}
		host := ""
		if d.Running() && d.HostingCentral() {
			host = "  <- hosts Central"
		}
		fmt.Fprintf(out, "  %-12s %-4s%s\n", name, status, host)
		if !d.Running() {
			continue
		}
		leading := make(map[gulfstream.IP]bool)
		for _, ip := range d.Leading() {
			leading[ip] = true
		}
		for _, ip := range f.Nodes[name].Adapters {
			v, ok := d.View(ip)
			if !ok {
				fmt.Fprintf(out, "      %-15v (no committed view)\n", ip)
				continue
			}
			role := "member of " + v.Leader().String()
			if leading[ip] {
				role = "leader"
			}
			fmt.Fprintf(out, "      %-15v v%-4d %2d members  %s\n", ip, v.Version, v.Size(), role)
		}
	}
	if c := f.ActiveCentral(); c != nil {
		fmt.Fprintf(out, "  central: %d groups, stable=%v\n", c.GroupCount(), c.Stable())
	} else {
		fmt.Fprintln(out, "  central: none active")
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "gsctl: "+format+"\n", args...)
	os.Exit(2)
}
