package walcheck

import (
	"testing"

	"repro/tools/analyzers/framework"
)

func TestWalcheck(t *testing.T) {
	framework.RunTest(t, "testdata", Analyzer, "badwal", "goodwal", "badapply", "goodapply")
}
