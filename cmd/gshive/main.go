// Command gshive is the conformance-harness orchestrator: it drives
// named chaos scenario suites against a five-node farm and holds the
// farm-wide trace to the protocol invariants. The farm is real gsd
// daemons on real UDP sockets behind an emulated switching fabric
// (loopback or netns), or the same farm in the simulator (sim), played
// in virtual time.
//
//	gshive list
//	gshive run [-fabric loopback|netns|sim] [-suite all|name,...] [-artifacts dir] [-bin path]
//
// Artifacts per suite: verdict.json, merged-trace.jsonl, topology.json,
// ground-truth.json, plus, on real daemons, every incarnation's log and
// journal.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strings"

	"repro/internal/conformance"
)

func main() {
	log.SetFlags(0)
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	switch os.Args[1] {
	case "list":
		for _, s := range conformance.Suites() {
			fmt.Printf("%-18s %s\n", s.Name, s.Desc)
		}
	case "run":
		runCmd(os.Args[2:])
	default:
		usage()
		os.Exit(2)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage:
  gshive list
  gshive run [-fabric loopback|netns|sim] [-suite all|name,...] [-artifacts dir] [-bin path]`)
}

func runCmd(args []string) {
	fs := flag.NewFlagSet("run", flag.ExitOnError)
	fabric := fs.String("fabric", "loopback", "fabric: loopback (unprivileged), netns (root), or sim (the simulator, virtual time)")
	suite := fs.String("suite", "all", "comma-separated suite names, or all")
	artifacts := fs.String("artifacts", "", "artifacts directory (default: temp dir)")
	bin := fs.String("bin", "", "gsd binary (default: build into artifacts dir; unused by sim)")
	fs.Parse(args)

	suites, err := conformance.FindSuites(strings.Split(*suite, ","))
	if err != nil {
		log.Fatal(err)
	}
	results, err := conformance.Run(suites, conformance.Options{
		Bin:       *bin,
		Fabric:    *fabric,
		Artifacts: *artifacts,
		Logf:      log.Printf,
	})
	if err != nil {
		log.Fatal(err)
	}

	passed := 0
	for _, r := range results {
		status := "FAIL"
		if r.Passed {
			status, passed = "PASS", passed+1
		}
		line := fmt.Sprintf("%s  %-18s %6.1fs", status, r.Suite, r.Seconds)
		if r.Verdict != nil {
			line += fmt.Sprintf("  records=%d sources=%d", r.Verdict.Records, r.Verdict.Sources)
		}
		if r.Err != "" {
			line += "  " + r.Err
		}
		fmt.Println(line)
	}
	fmt.Printf("%d/%d suites passed on the %s fabric\n", passed, len(results), *fabric)
	if passed != len(results) {
		os.Exit(1)
	}
}
