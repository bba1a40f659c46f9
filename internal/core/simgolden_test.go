package core

import (
	"bufio"
	"fmt"
	"os"
	"strconv"
	"strings"
	"testing"

	"mulayer/internal/models"
	"mulayer/internal/partition"
	"mulayer/internal/sim"
	"mulayer/internal/soc"
	"mulayer/internal/tensor"
)

// simGoldenPath holds the committed plans and simulated reports that
// TestSimGolden pins bit for bit.
const simGoldenPath = "testdata/sim_golden.txt"

// TestSimGolden pins every plan and every simulated report across the
// modeled SoCs, the zoo models, each mechanism the SoC supports, the
// single-unhealthy-processor degraded plans, and the {async, blocking} ×
// {zero-copy, copy} issue/synchronization ablations. Figures are written
// exactly (durations in ns, energies in the shortest round-trip float
// form), so a refactor of the planner or the executor that moves any
// figure by one ulp fails here, naming the combination.
//
// When a change moves figures on purpose, the test writes the current
// figures to a temporary file and names it; review the diff against the
// committed file and copy it over testdata/sim_golden.txt.
func TestSimGolden(t *testing.T) {
	got := simGoldenLines(t)
	want, err := readLines(simGoldenPath)
	if err != nil {
		t.Fatal(err)
	}
	wantAt := make(map[string]string, len(want))
	for _, l := range want {
		k, v, _ := strings.Cut(l, " = ")
		wantAt[k] = v
	}
	bad := 0
	for _, l := range got {
		k, v, _ := strings.Cut(l, " = ")
		w, ok := wantAt[k]
		delete(wantAt, k)
		if ok && w == v {
			continue
		}
		if bad++; bad <= 10 {
			t.Errorf("%s\n  got  %s\n  want %s", k, v, w)
		}
	}
	for k := range wantAt {
		if bad++; bad <= 10 {
			t.Errorf("%s: in the golden file but no longer produced", k)
		}
	}
	if bad == 0 {
		return
	}
	t.Errorf("%d golden entries differ", bad)
	f, err := os.CreateTemp("", "sim_golden-*.txt")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := f.WriteString(strings.Join(got, "\n") + "\n"); err != nil {
		t.Fatal(err)
	}
	t.Logf("current figures written to %s", f.Name())
}

func readLines(path string) ([]string, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []string
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		if l := sc.Text(); l != "" {
			out = append(out, l)
		}
	}
	return out, sc.Err()
}

// simGoldenLines renders one "key = value" line per plan and per report.
func simGoldenLines(t *testing.T) []string {
	t.Helper()
	socs := []struct {
		name string
		soc  *soc.SoC
	}{
		{"exynos7420", soc.Exynos7420()},
		{"exynos7880", soc.Exynos7880()},
		{"exynos7420npu", soc.Exynos7420NPU()},
	}
	zoo := []struct {
		name  string
		build func(models.Config) (*models.Model, error)
	}{
		{"googlenet", models.GoogLeNet},
		{"squeezenet", models.SqueezeNetV11},
		{"vgg16", models.VGG16},
		{"alexnet", models.AlexNet},
		{"mobilenet", models.MobileNetV1},
		{"resnet18", models.ResNet18},
	}
	mechs := []Mechanism{
		MechCPUOnly, MechGPUOnly, MechLayerToProcessor, MechChannelDist,
		MechChannelDistProcQuant, MechMuLayer, MechNPUOnly, MechMuLayerNPU,
	}
	var lines []string
	for _, s := range socs {
		rt, err := NewRuntime(s.soc)
		if err != nil {
			t.Fatal(err)
		}
		for _, z := range zoo {
			m, err := z.build(models.Config{})
			if err != nil {
				t.Fatal(err)
			}
			for _, mech := range mechs {
				if (mech == MechNPUOnly || mech == MechMuLayerNPU) && s.soc.NPU == nil {
					continue
				}
				key := fmt.Sprintf("%s %s %s", s.name, z.name, mech)
				for _, u := range []ProcSet{0, ProcSetCPU, ProcSetGPU, ProcSetNPU} {
					if u == ProcSetNPU && s.soc.NPU == nil {
						continue
					}
					plan, err := rt.Plan(m, RunConfig{Mechanism: mech, DType: tensor.QUInt8, Unhealthy: u})
					k := key + " plan"
					if u != 0 {
						k += " unhealthy=" + u.String()
					}
					if err != nil {
						lines = append(lines, k+" = error: "+err.Error())
						continue
					}
					lines = append(lines, k+" = "+planString(plan))
				}
				for _, async := range []bool{true, false} {
					for _, zc := range []bool{true, false} {
						rc := RunConfig{Mechanism: mech, DType: tensor.QUInt8,
							DisableAsyncIssue: !async, DisableZeroCopy: !zc}
						res, err := rt.Run(m, nil, rc)
						if err != nil {
							t.Fatalf("%s: %v", key, err)
						}
						issue, sync := "async", "zerocopy"
						if !async {
							issue = "blocking"
						}
						if !zc {
							sync = "copy"
						}
						lines = append(lines, fmt.Sprintf("%s %s %s = %s", key, issue, sync, reportString(res.Report)))
					}
				}
			}
		}
	}
	return lines
}

// planString renders a plan exactly: Predicted in ns, then one token per
// step — "node:P" or "node:P/PNPU" for a layer step, "B<fork>:<procs>"
// for a branch step with one processor initial per branch.
func planString(p *partition.Plan) string {
	var b strings.Builder
	fmt.Fprintf(&b, "predicted=%d", int64(p.Predicted))
	for _, st := range p.Steps {
		b.WriteByte(' ')
		switch {
		case st.Layer != nil:
			fmt.Fprintf(&b, "%d:%s", st.Layer.Node, fmtFloat(st.Layer.P))
			if st.Layer.PNPU != 0 {
				b.WriteString("/" + fmtFloat(st.Layer.PNPU))
			}
		case st.Branch != nil:
			fmt.Fprintf(&b, "B%d:", st.Branch.Group.Fork)
			for _, p := range st.Branch.Assign {
				b.WriteByte(p.String()[0])
			}
		}
	}
	return b.String()
}

// reportString renders every field of a simulated report exactly.
func reportString(r sim.Report) string {
	return fmt.Sprintf("latency=%d dyn=%s dram=%s static=%s cpu=%d gpu=%d npu=%d launches=%d",
		int64(r.Latency), fmtFloat(r.DynamicJ), fmtFloat(r.DRAMJ), fmtFloat(r.StaticJ),
		int64(r.CPUBusy), int64(r.GPUBusy), int64(r.NPUBusy), r.KernelLaunches)
}

func fmtFloat(x float64) string { return strconv.FormatFloat(x, 'g', -1, 64) }
