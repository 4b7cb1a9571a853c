package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strconv"
	"strings"
)

// repeatRuns runs the named workload (every workload for "all" or "")
// n times, each in its own child process on seeds seed..seed+n-1, and
// prints each run's end-to-end metrics, then each metric's median,
// quartiles and spread: the interquartile distance as a share of the
// median. A metric whose
// spread exceeds its bound is flagged, and so is any run that failed an
// operation or an output check; either makes the exit status 1.
func repeatRuns(name string, seed int64, seconds, n int, stdout, stderr io.Writer) int {
	selected := workloads
	if name != "" && name != "all" {
		w := findWorkload(name)
		if w == nil {
			fmt.Fprintf(stderr, "perfbench: unknown workload %q\n", name)
			return 2
		}
		selected = []workload{*w}
	}
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	status := 0
	for _, w := range selected {
		values := map[string][]float64{}
		var attempted, failed int
		for k := 0; k < n; k++ {
			s := seed + int64(k)
			r, err := runChild(self, w.name, s, seconds)
			if err != nil {
				fmt.Fprintf(stderr, "perfbench: %s seed %d: %v\n", w.name, s, err)
				return 1
			}
			if !r.Correct {
				fmt.Fprintf(stdout, "%s seed %d: INCORRECT output\n", w.name, s)
				status = 1
			}
			attempted += r.Attempted
			failed += r.Failed
			fmt.Fprintf(stdout, "%s seed %d:", w.name, s)
			for _, m := range endToEnd {
				values[m.Name] = append(values[m.Name], r.Metrics[m.Name].Value)
				fmt.Fprintf(stdout, " %s %.6g", m.Name, r.Metrics[m.Name].Value)
			}
			fmt.Fprintf(stdout, " (%d/%d failed)\n", r.Failed, r.Attempted)
		}
		fmt.Fprintf(stdout, "%s: %d runs, %d operations attempted, %d failed\n", w.name, n, attempted, failed)
		if failed > 0 {
			status = 1
		}
		fmt.Fprintf(stdout, "  %-20s %14s %14s %14s %8s %6s\n", "metric", "q1", "median", "q3", "spread", "bound")
		for _, m := range endToEnd {
			q1, med, q3 := quartiles(values[m.Name])
			spread := ratio(q3-q1, med)
			flag := ""
			if spread > m.Bound {
				flag = "  SPREAD EXCEEDS BOUND"
				status = 1
			}
			fmt.Fprintf(stdout, "  %-20s %14.6g %14.6g %14.6g %8.4f %6.2f %s%s\n", m.Name, q1, med, q3, spread, m.Bound, m.Unit, flag)
		}
	}
	return status
}

// runChild runs one untraced benchmark run and parses its result line.
func runChild(self, name string, seed int64, seconds int) (result, error) {
	cmd := exec.Command(self, "--workload", name, "--seed", strconv.FormatInt(seed, 10),
		"--seconds", strconv.Itoa(seconds), "--trace", "0")
	var out, errOut bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errOut
	if err := cmd.Run(); err != nil {
		return result{}, fmt.Errorf("%w: %s", err, strings.TrimSpace(errOut.String()))
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var r result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r); err != nil {
		return result{}, fmt.Errorf("result line: %w", err)
	}
	return r, nil
}
