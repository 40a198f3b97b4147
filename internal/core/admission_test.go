package core

import (
	"os"
	"strings"
	"testing"
)

const (
	matrixBegin = "<!-- admission matrix: rendered from internal/core admissionTable -->\n"
	matrixEnd   = "<!-- end admission matrix -->\n"
)

// renderAdmissionMatrix prints admissionTable as DESIGN.md's markdown
// matrix: one row per condition, one column per fast path.
func renderAdmissionMatrix() string {
	var sb strings.Builder
	sb.WriteString("| Condition | Parallel (`-shards N`) | Hybrid exact | Hybrid analytic |\n")
	sb.WriteString("|---|---|---|---|\n")
	for _, r := range admissionTable {
		sb.WriteString("| " + r.cond)
		for _, why := range r.why {
			if why == "" {
				why = "—"
			}
			sb.WriteString(" | " + why)
		}
		sb.WriteString(" |\n")
	}
	return sb.String()
}

// TestAdmissionMatrixMatchesDesign keeps DESIGN.md's admission matrix the
// rendering of the table the code runs.
func TestAdmissionMatrixMatchesDesign(t *testing.T) {
	doc, err := os.ReadFile("../../DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	_, rest, ok := strings.Cut(string(doc), matrixBegin)
	block, _, ok2 := strings.Cut(rest, matrixEnd)
	if !ok || !ok2 {
		t.Fatalf("DESIGN.md has no %q ... %q block", matrixBegin, matrixEnd)
	}
	if want := renderAdmissionMatrix(); block != want {
		t.Errorf("DESIGN.md admission matrix is stale; replace the block with:\n%s", want)
	}
}
