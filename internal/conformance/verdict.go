package conformance

import (
	"encoding/json"
	"os"
	"path/filepath"

	"repro/internal/check"
	"repro/internal/span"
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
	// Warnings are non-fatal scrape anomalies.
	Warnings []string `json:"warnings,omitempty"`

	Passed bool `json:"passed"`
}

// evaluate runs the three verdict stages over the scraped farm trace
// and the final topology document.
func evaluate(suite, fabric string, s *Scraper, topoSpec span.Topology,
	finalTopo *TopologyDoc, gt *GroundTruth) *Verdict {

	v := &Verdict{
		Suite: suite, Fabric: fabric, Sources: s.Sources(),
		Violations: []string{}, AuditFindings: []string{},
		TopologyDiff: []string{}, MismatchDiff: []string{},
	}

	// Stage 1: the invariant engine over the keep-all merge. It folds its
	// membership model from the records alone, so every invariant but
	// journal-consistent (which needs a live Central) is judged.
	all := s.Merged(nil)
	v.Records = len(all)
	engine := check.NewEngine(nil)
	for _, r := range all {
		engine.Observe(r)
	}
	for _, viol := range engine.Violations() {
		v.Violations = append(v.Violations, viol.Format())
	}

	// Stage 2: incident-span closure audit over the stitching merge.
	v.AuditFindings = append(v.AuditFindings, span.Audit(s.Merged(span.DefaultFilter), topoSpec)...)

	// Stage 3: discovered topology vs declared ground truth, including
	// the configdb verification verdicts.
	v.TopologyDiff = append(v.TopologyDiff, gt.Diff(finalTopo)...)
	var mismatches []string
	if finalTopo != nil {
		mismatches = finalTopo.Mismatches
	}
	v.MismatchDiff = append(v.MismatchDiff, gt.DiffMismatches(mismatches)...)

	v.Warnings = s.Warnings()
	v.Passed = len(v.Violations) == 0 && len(v.AuditFindings) == 0 &&
		len(v.TopologyDiff) == 0 && len(v.MismatchDiff) == 0
	return v
}

// writeArtifacts persists the verdict, the merged trace, the final
// topology, and the ground truth under dir.
func writeArtifacts(dir string, v *Verdict, s *Scraper, finalTopo *TopologyDoc, gt *GroundTruth) error {
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
	for _, r := range s.Merged(nil) {
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
