// Command tsplit-bench regenerates the paper's evaluation tables and
// figures on the simulated devices. Run with -exp all (default) or a
// comma-separated subset of:
//
//	fig1 fig2a fig2b table2 fig5 table4 table5 fig12 fig13
//	fig14a fig14b table6 table7 fig15 ablations faults planlat
//	simlat serve
//
// -quick trims the scale-search bounds so a full run finishes in about
// a minute; the defaults match the paper's ranges.
//
// An unknown id exits 2 (listing the known ids) before anything runs;
// if any selected experiment fails, the rest still run and the command
// exits 1.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"strings"

	"tsplit/internal/device"
	"tsplit/internal/experiments"
	"tsplit/internal/models"
	"tsplit/internal/obs"
)

// writeOut streams fn to stdout (path "-") or to path. The file Close
// error is returned: metrics and span exports flush at Close, so a
// dropped Close error is a silently truncated file.
func writeOut(path string, fn func(io.Writer) error) error {
	if path == "-" {
		return fn(os.Stdout)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := fn(f); err != nil {
		_ = f.Close() // the write error is the one to report
		return err
	}
	return f.Close()
}

// experiment is one selectable section of the output.
type experiment struct {
	id  string
	run func() (string, error)
}

func main() { os.Exit(bench()) }

func bench() int {
	exp := flag.String("exp", "all", "experiments to run (comma-separated ids, or 'all')")
	quick := flag.Bool("quick", false, "trim scale-search bounds for a fast run")
	metrics := flag.String("metrics", "", "write Prometheus text metrics for the whole run to this file (\"-\" = stdout)")
	spans := flag.String("spans", "", "write per-cell sweep spans as JSON to this file (\"-\" = stdout)")
	flag.Parse()

	var reg *obs.Registry
	if *metrics != "" {
		reg = obs.NewRegistry()
		experiments.Obs = reg
		defer func() {
			if err := writeOut(*metrics, reg.WritePrometheus); err != nil {
				fmt.Fprintf(os.Stderr, "metrics: %v\n", err)
			}
		}()
	}
	if *spans != "" {
		tr := obs.NewTracer(nil)
		experiments.Trace = tr
		defer func() {
			if err := writeOut(*spans, tr.WriteJSON); err != nil {
				fmt.Fprintf(os.Stderr, "spans: %v\n", err)
			}
		}()
	}

	hi := 0 // default search bounds
	hiParam := 0
	if *quick {
		hi = 512
		hiParam = 16
	}

	var exps []experiment
	add := func(id string, f func() (string, error)) {
		exps = append(exps, experiment{id, f})
	}
	add("fig1", func() (string, error) {
		grid, caps, err := experiments.Fig1BERTMemoryScale()
		if err != nil {
			return "", err
		}
		return experiments.RenderFig1(grid, caps), nil
	})
	add("fig2a", func() (string, error) {
		fig, err := experiments.Fig2aMemoryTimeline(device.TitanRTX, 256)
		if err != nil {
			return "", err
		}
		return fig.Render(), nil
	})
	add("fig2b", func() (string, error) {
		rows, err := experiments.Fig2bOverheadPCIe(device.TitanRTX, "superneurons")
		if err != nil {
			return "", err
		}
		return experiments.RenderOverhead("superneurons", rows), nil
	})
	add("table2", func() (string, error) {
		buckets, err := experiments.Table2TensorSizes(32, 512)
		if err != nil {
			return "", err
		}
		return experiments.RenderTable2(buckets), nil
	})
	add("fig5", func() (string, error) {
		curves, err := experiments.Fig5OpSplitCurves(device.TitanRTX, 64)
		if err != nil {
			return "", err
		}
		return experiments.RenderFig5(curves), nil
	})
	add("table4", func() (string, error) {
		return experiments.Table4MaxSampleScale(device.TitanRTX, hi).Render(), nil
	})
	add("table5", func() (string, error) {
		return experiments.Table5MaxParamScale(device.TitanRTX, hiParam).Render(), nil
	})
	add("fig12", func() (string, error) {
		return experiments.Fig12ThroughputRTX().Render(), nil
	})
	add("fig13", func() (string, error) {
		return experiments.Fig13Throughput1080Ti().Render(), nil
	})
	add("fig14a", func() (string, error) {
		rows, err := experiments.Fig14aScaleUnderThroughput(device.TitanRTX, hi)
		if err != nil {
			return "", err
		}
		return experiments.RenderFig14a(rows), nil
	})
	add("fig14b", func() (string, error) {
		rows, err := experiments.Fig14bStrategyMix(0)
		if err != nil {
			return "", err
		}
		return experiments.RenderFig14b(rows), nil
	})
	add("table6", func() (string, error) {
		return experiments.Table6MaxSampleVsOffload(device.TitanRTX, hi).Render(), nil
	})
	add("table7", func() (string, error) {
		return experiments.Table7MaxParamVsOffload(device.TitanRTX, hiParam).Render(), nil
	})
	add("fig15", func() (string, error) {
		return experiments.Fig15ThroughputVsOffload().Render(), nil
	})
	add("faults", func() (string, error) {
		rep, err := experiments.FaultSweep("vgg16", models.Config{BatchSize: 96}, device.GTX1080Ti, 42)
		if err != nil {
			return "", err
		}
		return rep.Render(), nil
	})
	add("planlat", func() (string, error) {
		rounds := 100
		if *quick {
			rounds = 20
		}
		rows, err := experiments.PlanLatency(device.TitanRTX, rounds)
		if err != nil {
			return "", err
		}
		return experiments.RenderPlanLat(rows), nil
	})
	add("simlat", func() (string, error) {
		rounds := 100
		if *quick {
			rounds = 20
		}
		rows, err := experiments.SimLatency(device.TitanRTX, rounds)
		if err != nil {
			return "", err
		}
		return experiments.RenderSimLat(rows), nil
	})
	add("serve", func() (string, error) {
		rep, err := experiments.ServeLoad(*quick)
		if err != nil {
			return "", err
		}
		return rep.Render(), nil
	})
	add("ablations", func() (string, error) {
		reports, err := experiments.AllAblations()
		if err != nil {
			return "", err
		}
		var b strings.Builder
		for _, r := range reports {
			b.WriteString(r.Render())
			b.WriteString("\n")
		}
		return b.String(), nil
	})

	return runSelected(exps, *exp, os.Stdout, os.Stderr)
}

// runSelected runs the experiments named in spec (comma-separated ids,
// or "all") in registration order and returns the exit status: 2 for
// an unknown id (nothing runs), 1 if any experiment failed, else 0.
func runSelected(exps []experiment, spec string, stdout, stderr io.Writer) int {
	ids := make([]string, len(exps))
	for i, e := range exps {
		ids[i] = e.id
	}
	want := map[string]bool{}
	for _, id := range strings.Split(spec, ",") {
		id = strings.TrimSpace(id)
		if id != "all" && !slices.Contains(ids, id) {
			// Best effort: the exit status carries the failure.
			_, _ = fmt.Fprintf(stderr, "tsplit-bench: unknown experiment %q; known: all %s\n", id, strings.Join(ids, " "))
			return 2
		}
		want[id] = true
	}
	status := 0
	for _, e := range exps {
		if !want["all"] && !want[e.id] {
			continue
		}
		start := obs.Wall()
		out, err := e.run()
		if err != nil {
			_, _ = fmt.Fprintf(stderr, "%s: %v\n", e.id, err)
			status = 1
			continue
		}
		if _, err := fmt.Fprintf(stdout, "===== %s (%.1fs) =====\n%s\n", e.id, obs.Wall().Sub(start).Seconds(), out); err != nil {
			return 1 // output is gone; running on cannot report anything
		}
	}
	return status
}
