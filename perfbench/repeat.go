package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"reflect"
	"strings"
)

// Repeat and determinism modes run single runs as child processes of this
// binary, so every run starts from a fresh heap, exactly as the single-run
// command does.

// childRun is one child's parsed output.
type childRun struct {
	Result result
	Detail map[string]any
}

func runChild(workload string, seed uint64, secs float64, trace int, outdir string) (childRun, error) {
	exe, err := os.Executable()
	if err != nil {
		return childRun{}, err
	}
	cmd := exec.Command(exe, "--workload", workload, "--seed", fmt.Sprint(seed),
		"--seconds", fmt.Sprint(secs), "--trace", fmt.Sprint(trace), "--outdir", outdir)
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = os.Stderr
	runErr := cmd.Run()
	var cr childRun
	sc := bufio.NewScanner(&stdout)
	sc.Buffer(make([]byte, 1<<20), 16<<20)
	for sc.Scan() {
		line := sc.Bytes()
		var d struct {
			Detail map[string]any `json:"detail"`
		}
		if json.Unmarshal(line, &d) == nil && d.Detail != nil {
			cr.Detail = d.Detail
			continue
		}
		json.Unmarshal(line, &cr.Result)
	}
	if runErr != nil {
		return cr, fmt.Errorf("%s seed %d: %w", workload, seed, runErr)
	}
	return cr, nil
}

func workloadsFor(name string) ([]string, error) {
	if name == "all" {
		var out []string
		for _, s := range specs {
			out = append(out, s.name)
		}
		return out, nil
	}
	if _, err := specByName(name); err != nil {
		return nil, err
	}
	return []string{name}, nil
}

// repeatMode runs each workload n times untraced at seeds seed..seed+n-1
// and once traced, and prints every end-to-end metric's quartiles and
// spread (IQR over median) next to its bound, then the traced run's
// per-layer figures and tracing overhead.
func repeatMode(workload string, seed uint64, secs float64, n int, outdir string) int {
	names, err := workloadsFor(workload)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	status := 0
	for _, w := range names {
		vals := map[string][]float64{}
		for i := 0; i < n; i++ {
			cr, err := runChild(w, seed+uint64(i), secs, 0, outdir)
			if err != nil || !cr.Result.Correct {
				fmt.Fprintf(os.Stderr, "perfbench: %s seed %d failed: %v\n", w, seed+uint64(i), err)
				status = 1
				continue
			}
			for name, m := range cr.Result.Metrics {
				vals[name] = append(vals[name], m.Value)
			}
		}
		fmt.Printf("== %s: %d untraced runs, seeds %d..%d\n", w, n, seed, seed+uint64(n)-1)
		fmt.Printf("%-18s %-6s %14s %14s %14s %8s %6s\n", "metric", "unit", "q1", "median", "q3", "spread", "bound")
		for _, m := range endToEnd {
			q1, med, q3 := quartiles(vals[m.Name])
			spread := ratio(q3-q1, med)
			flag := ""
			if m.Name != "setup_s" && spread > m.Bound/3 {
				flag = "  > bound/3"
			}
			fmt.Printf("%-18s %-6s %14.6g %14.6g %14.6g %8.4f %6.2f%s\n", m.Name, m.Unit, q1, med, q3, spread, m.Bound, flag)
		}
		raw, _ := json.Marshal(vals)
		fmt.Printf("values: %s\n", raw)
		cr, err := runChild(w, seed, secs, 1, outdir)
		if err != nil || !cr.Result.Correct {
			fmt.Fprintf(os.Stderr, "perfbench: %s traced run failed: %v\n", w, err)
			status = 1
			continue
		}
		fmt.Printf("-- %s: traced run, seed %d\n", w, seed)
		for _, m := range perLayer {
			fmt.Printf("%-42s %-6s %14.6g\n", m.Name, m.Unit, cr.Result.Metrics[m.Name].Value)
		}
		_, qpsMed, _ := quartiles(vals["qps"])
		fmt.Printf("tracing overhead: %.2f%% within the traced run (traced vs untraced half); untraced median qps %.6g\n",
			cr.Result.Metrics["trace.overhead_pct"].Value, qpsMed)
		if z, ok := cr.Detail["layers_not_exercised"].([]any); ok && len(z) > 0 {
			parts := make([]string, len(z))
			for i, x := range z {
				parts[i] = fmt.Sprint(x)
			}
			fmt.Printf("layers reading 0 on this workload: %s\n", strings.Join(parts, ", "))
		}
	}
	return status
}

// determinismMode runs a workload twice at one seed and requires its
// counted metrics (work per query, build and update writes, the update
// strategy histogram, lazy builds) to be identical, and both runs correct.
func determinismMode(workload string, seed uint64, secs float64, outdir string) int {
	names, err := workloadsFor(workload)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	status := 0
	for _, w := range names {
		var counts [2]any
		ok := true
		for i := range counts {
			cr, err := runChild(w, seed, secs, 0, outdir)
			if err != nil || !cr.Result.Correct {
				fmt.Printf("%s seed %d run %d: failed (%v)\n", w, seed, i+1, err)
				ok = false
				break
			}
			counts[i] = cr.Detail["counts"]
		}
		if ok && !reflect.DeepEqual(counts[0], counts[1]) {
			ok = false
		}
		a, _ := json.Marshal(counts[0])
		b, _ := json.Marshal(counts[1])
		verdict := "identical"
		if !ok {
			verdict = "DIFFER"
			status = 1
		}
		fmt.Printf("%s seed %d: counted metrics %s\n  run 1: %s\n  run 2: %s\n", w, seed, verdict, a, b)
	}
	return status
}
