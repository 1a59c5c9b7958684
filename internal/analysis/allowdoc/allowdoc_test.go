package allowdoc_test

import (
	"testing"

	"repro/internal/analysis/allowdoc"
	"repro/internal/analysis/analysistest"
)

func TestAllowdoc(t *testing.T) {
	analysistest.Run(t, "testdata/src", allowdoc.Analyzer, "a", "clean")
}
