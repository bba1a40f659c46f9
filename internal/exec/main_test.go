package exec

import (
	"os"
	"testing"
)

// TestMain runs every test of the package with poisoned arenas: each
// node's output range gets its own non-zero fill just before the node
// computes it, so a kernel that reads its output before writing it makes
// two runs of one input disagree, and the goldens fail.
func TestMain(m *testing.M) {
	poisonArenas = true
	os.Exit(m.Run())
}
