package main

import (
	"fmt"
	"path/filepath"
	"sort"
)

// compareMain implements `benchmark compare a.json b.json`: a is the
// parent's result file, b the change's. It applies BENCHMARK.json's bound
// to every (end-to-end metric, workload) pair and exits non-zero when b is
// worse than a by more than the bound, or fails a larger share of its
// operations. A pair whose run-to-run spread exceeds its bound is
// reported as unresolved, never as unchanged.
func compareMain(args []string) int {
	if len(args) != 2 {
		return fail("usage: benchmark compare a.json b.json")
	}
	root, err := findRoot()
	if err != nil {
		return fail("%v", err)
	}
	spec, err := loadSpec(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return fail("%v", err)
	}
	a, err := readResultFile(args[0])
	if err != nil {
		return fail("%v", err)
	}
	b, err := readResultFile(args[1])
	if err != nil {
		return fail("%v", err)
	}
	// The commit is what is being compared; everything else must match.
	ea, eb := a.Env, b.Env
	ea.GitCommit, eb.GitCommit = "", ""
	if ea != eb {
		return fail("refusing to compare unlike machines or toolchains:\n  a: %+v\n  b: %+v", a.Env, b.Env)
	}
	if ha, hb := requestHashes(a.Runs), requestHashes(b.Runs); fmt.Sprint(ha) != fmt.Sprint(hb) {
		return fail("refusing to compare unlike inputs: the generated request lists differ (same workloads, seeds and benchmark code on both sides?)\n  a: %v\n  b: %v", ha, hb)
	}

	regressed := false
	fmt.Printf("%-16s %-18s %36s %36s %8s %6s  %s\n", "workload", "metric", "a: q1 / median / q3", "b: q1 / median / q3", "change", "bound", "verdict")
	for _, w := range spec.workloadNames() {
		for _, m := range spec.EndToEnd {
			va, vb := metricSeries(a.Runs, w, m.Name), metricSeries(b.Runs, w, m.Name)
			if len(va) < 2 || len(vb) < 2 {
				continue // quartiles need two runs a side
			}
			a1, am, a3 := quartiles(va)
			b1, bm, b3 := quartiles(vb)
			change := (bm - am) / am
			worse := change // positive = b is worse
			if m.Better == "higher" {
				worse = -change
			}
			verdict := "unchanged"
			switch {
			case (a3-a1)/am > m.Bound || (b3-b1)/bm > m.Bound:
				verdict = "unresolved (spread exceeds bound)"
			case worse > m.Bound:
				verdict = "REGRESSION"
				regressed = true
			case worse < -m.Bound:
				verdict = "better"
			}
			fmt.Printf("%-16s %-18s %36s %36s %+7.1f%% %5.0f%%  %s\n", w, m.Name,
				fmt.Sprintf("%.4g / %.4g / %.4g", a1, am, a3), fmt.Sprintf("%.4g / %.4g / %.4g", b1, bm, b3),
				100*change, 100*m.Bound, verdict)
		}
		fa, fb := failShare(a.Runs, w), failShare(b.Runs, w)
		if fb > fa {
			fmt.Printf("%-16s failed/attempted rose from %.4f to %.4f: REGRESSION\n", w, fa, fb)
			regressed = true
		}
	}
	if regressed {
		return 1
	}
	return 0
}

// requestHashes lists "workload/seed=hash" for the untraced runs, sorted.
func requestHashes(runs []runResult) []string {
	var hs []string
	for _, r := range runs {
		if r.Trace == 0 {
			hs = append(hs, fmt.Sprintf("%s/%d=%s", r.Workload, r.Seed, r.RequestHash))
		}
	}
	sort.Strings(hs)
	return hs
}

func failShare(runs []runResult, workload string) float64 {
	var failed, attempted float64
	for _, r := range runs {
		if r.Workload == workload && r.Trace == 0 {
			failed += float64(r.Failed)
			attempted += float64(r.Attempted)
		}
	}
	return ratio(failed, attempted)
}
