package main

import (
	"bytes"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

type resultLine struct {
	Correct   bool                 `json:"correct"`
	Attempted int64                `json:"attempted"`
	Failed    int64                `json:"failed"`
	Metrics   map[string]metricVal `json:"metrics"`
}

// serverBin builds spatialserver once for the tests that need it.
func serverBin(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "spatialserver")
	out, err := exec.Command("go", "build", "-o", bin, "spatialsim/cmd/spatialserver").CombinedOutput()
	if err != nil {
		t.Fatalf("build spatialserver: %v\n%s", err, out)
	}
	return bin
}

func runTiny(t *testing.T, bin, workload string, extra ...string) resultLine {
	t.Helper()
	var out bytes.Buffer
	args := append([]string{"--workload", workload, "--tiny", "--seconds", "1", "--seed", "3",
		"--server-bin", bin, "--out-dir", t.TempDir()}, extra...)
	if err := run(args, &out); err != nil {
		t.Fatalf("%s %v: %v\n%s", workload, extra, err, out.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res resultLine
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("%s: last line is not the result object: %v\n%s", workload, err, out.String())
	}
	return res
}

func names(m map[string]metricVal) []string {
	var out []string
	for n := range m {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

func sorted(xs []string) []string {
	out := append([]string(nil), xs...)
	sort.Strings(out)
	return out
}

// Every workload runs at tiny scale, answers every valid request correctly,
// and reports exactly the metric set BENCHMARK.json names.
func TestTinyWorkloads(t *testing.T) {
	bin := serverBin(t)
	for w := range workloads {
		for _, trace := range []string{"0", "1"} {
			res := runTiny(t, bin, w, "--trace", trace)
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace %s: correct=%t failed=%d attempted=%d", w, trace, res.Correct, res.Failed, res.Attempted)
			}
			want := endToEnd
			if trace == "1" {
				want = perLayer
			}
			if got := names(res.Metrics); strings.Join(got, ",") != strings.Join(sorted(want), ",") {
				t.Errorf("%s trace %s: metrics %v, want %v", w, trace, got, sorted(want))
			}
		}
	}
}

// One injected wrong answer (an item dropped from a reply before the
// check) must be caught by the oracle on every workload.
func TestOracleCatchesInjectedWrongAnswer(t *testing.T) {
	bin := serverBin(t)
	for w := range workloads {
		res := runTiny(t, bin, w, "--trace", "0", "--inject-wrong")
		if res.Correct || res.Failed != 1 {
			t.Errorf("%s: injected wrong answer not caught: correct=%t failed=%d", w, res.Correct, res.Failed)
		}
	}
}

// The metric names the result line carries are the ones BENCHMARK.json
// declares.
func TestMetricNamesMatchBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct{ Name string } `json:"end_to_end"`
		PerLayer []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	list := func(xs []struct{ Name string }) string {
		var out []string
		for _, x := range xs {
			out = append(out, x.Name)
		}
		return strings.Join(sorted(out), ",")
	}
	if got, want := list(spec.EndToEnd), strings.Join(sorted(endToEnd), ","); got != want {
		t.Errorf("BENCHMARK.json end_to_end %s, code %s", got, want)
	}
	if got, want := list(spec.PerLayer), strings.Join(sorted(perLayer), ","); got != want {
		t.Errorf("BENCHMARK.json per_layer %s, code %s", got, want)
	}
}
