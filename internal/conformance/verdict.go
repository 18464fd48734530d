package conformance

import (
	"encoding/json"
	"os"
	"path/filepath"
	"slices"

	"repro/internal/central"
	"repro/internal/check"
	"repro/internal/span"
	"repro/internal/trace"
)

// Verdict is one suite's machine-checkable outcome, written to the
// artifacts directory as verdict.json.
type Verdict struct {
	Suite   string `json:"suite"`
	Fabric  string `json:"fabric"`
	Records int    `json:"records"`
	Sources int    `json:"sources"`

	// Violations are invariant breaches the check engine caught in the
	// merged farm trace.
	Violations []string `json:"violations"`
	// AuditFindings are incident spans that never closed (span.Audit).
	AuditFindings []string `json:"audit_findings"`
	// TopologyDiff is the divergence between Central's discovered
	// topology and the declared ground truth.
	TopologyDiff []string `json:"topology_diff"`
	// MismatchDiff compares configdb verification verdicts against the
	// planted expectations.
	MismatchDiff []string `json:"mismatch_diff"`
	// Warnings are non-fatal trace anomalies (scrape gaps).
	Warnings []string `json:"warnings,omitempty"`

	Passed bool `json:"passed"`
}

// evaluate runs the three verdict stages over the farm trace and the
// final topology document, the same in either world.
func evaluate(suite, fabric string, records []trace.Record, topoSpec span.Topology,
	finalTopo *central.Topology, gt *GroundTruth) *Verdict {

	v := &Verdict{
		Suite: suite, Fabric: fabric, Records: len(records),
		Violations: []string{}, AuditFindings: []string{},
		TopologyDiff: []string{}, MismatchDiff: []string{},
	}

	// Stage 1: the invariant engine over every record. It folds its
	// membership model from the records alone, so every invariant but
	// journal-consistent (which needs a live Central) is judged.
	engine := check.NewEngine(nil)
	for _, r := range records {
		engine.Observe(r)
	}
	for _, viol := range engine.Violations() {
		v.Violations = append(v.Violations, viol.Format())
	}

	// Stage 2: incident-span closure audit over the records stitching
	// reads.
	stitched := slices.DeleteFunc(slices.Clone(records), func(r trace.Record) bool { return !span.DefaultFilter(r) })
	v.AuditFindings = append(v.AuditFindings, span.Audit(stitched, topoSpec)...)

	// Stage 3: discovered topology vs declared ground truth, including
	// the configdb verification verdicts.
	v.TopologyDiff = append(v.TopologyDiff, gt.Diff(finalTopo)...)
	var mismatches []string
	if finalTopo != nil {
		mismatches = finalTopo.Mismatches
	}
	v.MismatchDiff = append(v.MismatchDiff, gt.DiffMismatches(mismatches)...)

	v.Passed = len(v.Violations) == 0 && len(v.AuditFindings) == 0 &&
		len(v.TopologyDiff) == 0 && len(v.MismatchDiff) == 0
	return v
}

// writeArtifacts persists the verdict, the merged trace, the final
// topology, and the ground truth under dir.
func writeArtifacts(dir string, v *Verdict, records []trace.Record, finalTopo *central.Topology, gt *GroundTruth) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	if err := writeJSON(filepath.Join(dir, "verdict.json"), v); err != nil {
		return err
	}
	if err := writeJSON(filepath.Join(dir, "ground-truth.json"), gt); err != nil {
		return err
	}
	if finalTopo != nil {
		if err := writeJSON(filepath.Join(dir, "topology.json"), finalTopo); err != nil {
			return err
		}
	}
	f, err := os.Create(filepath.Join(dir, "merged-trace.jsonl"))
	if err != nil {
		return err
	}
	defer f.Close()
	enc := json.NewEncoder(f)
	for _, r := range records {
		if err := enc.Encode(r); err != nil {
			return err
		}
	}
	return nil
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
