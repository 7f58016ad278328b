// Command cqmeval reproduces the paper's evaluation end to end: it builds
// the canonical pipeline on the synthetic AwarePen substrate and prints
// the requested experiment (or all of them).
//
// Usage:
//
//	cqmeval [-seed N] [-experiment fig5|fig6|probs|improvement|agnostic|balance|sizes|camera|ablations|all]
//	        [-metrics-out metrics.json] [-workers N] [-faults] [-retransmit] [-adapt]
//
// -metrics-out instruments the canonical pipeline (training counters,
// scoring and ε-rate counters, the quality histogram) and writes a JSON
// snapshot of the registry after the experiments finish.
//
// -workers parallelizes the hot paths (subtractive clustering, hybrid
// learning, cross-validation folds): 0 picks one worker per CPU, 1 (the
// default) keeps everything serial. Results are bit-identical at every
// setting.
//
// -faults runs the E8 robustness sweep (shorthand for -experiment faults):
// the appliance chain under increasing sensor- and channel-fault
// intensity, reporting raw and CQM-filtered accuracy, ε rates, and the
// camera's surviving event intake. -retransmit additionally turns on the
// bus's ack/retransmit reliability layer for the sweep.
//
// -adapt runs the self-healing lifecycle demo (shorthand for -experiment
// adapt): the adaptation supervisor's heal, quarantine, and rollback
// scenarios plus a bit-identity replay check, exiting nonzero on any
// journal-invariant or determinism violation.
package main

import (
	"flag"
	"fmt"
	"os"

	"cqm/internal/adapt/scenario"
	"cqm/internal/core"
	"cqm/internal/eval"
	"cqm/internal/obs"
)

func main() {
	seed := flag.Int64("seed", eval.DefaultSeed, "random seed for the evaluation pipeline")
	experiment := flag.String("experiment", "all", "experiment to run: fig5, fig6, probs, improvement, agnostic, balance, sizes, camera, predict, fusion, confidence, crossval, cues, noise, faults, resume, adapt, ablations, all")
	report := flag.Bool("report", false, "write the consolidated report (all experiments, DESIGN.md order) to stdout")
	metricsOut := flag.String("metrics-out", "", "write a JSON metrics snapshot to this file on exit")
	workers := flag.Int("workers", 1, "worker count for parallelized stages (0 = one per CPU, 1 = serial); results are identical at every setting")
	faults := flag.Bool("faults", false, "run the fault-intensity robustness sweep (shorthand for -experiment faults)")
	retransmit := flag.Bool("retransmit", false, "enable the bus ack/retransmit reliability layer in the faults sweep")
	adaptDemo := flag.Bool("adapt", false, "run the self-healing lifecycle demo (shorthand for -experiment adapt)")
	flag.Parse()

	if *report {
		if err := eval.WriteReport(os.Stdout, *seed); err != nil {
			fmt.Fprintln(os.Stderr, "cqmeval:", err)
			os.Exit(1)
		}
		return
	}
	exp := *experiment
	if *faults {
		exp = "faults"
	}
	if *adaptDemo {
		exp = "adapt"
	}
	if err := run(*seed, exp, *metricsOut, *workers, *retransmit); err != nil {
		fmt.Fprintln(os.Stderr, "cqmeval:", err)
		os.Exit(1)
	}
}

func run(seed int64, experiment, metricsOut string, workers int, retransmit bool) error {
	var reg *obs.Registry
	if metricsOut != "" {
		reg = obs.NewRegistry()
	}
	needsSetup := map[string]bool{
		"fig5": true, "fig6": true, "probs": true, "faults": true,
		"improvement": true, "camera": true, "confidence": true,
		"resume": true, "all": true,
	}
	build := core.BuildConfig{Metrics: reg}
	build.Clustering.Workers = workers
	build.Hybrid.Workers = workers
	var setup *eval.Setup
	if needsSetup[experiment] {
		var err error
		setup, err = eval.NewSetup(eval.SetupConfig{
			Seed:  seed,
			Build: build,
		})
		if err != nil {
			return err
		}
	}
	defer func() {
		if metricsOut == "" {
			return
		}
		f, err := os.Create(metricsOut)
		if err != nil {
			fmt.Fprintln(os.Stderr, "cqmeval: metrics snapshot:", err)
			return
		}
		defer f.Close()
		if err := reg.WriteJSON(f); err != nil {
			fmt.Fprintln(os.Stderr, "cqmeval: metrics snapshot:", err)
		}
	}()

	all := experiment == "all"
	ran := false
	if all || experiment == "fig5" {
		res, err := eval.Figure5(setup)
		if err != nil {
			return err
		}
		fmt.Print(res.Render())
		ran = true
	}
	if all || experiment == "fig6" {
		res, err := eval.Figure6(setup)
		if err != nil {
			return err
		}
		fmt.Print(res.Render())
		ran = true
	}
	if all || experiment == "probs" {
		fmt.Print(eval.RenderProbabilityTable(eval.ProbabilityTable(setup)))
		ran = true
	}
	if all || experiment == "improvement" {
		res, err := eval.ImprovementExperiment(setup)
		if err != nil {
			return err
		}
		fmt.Print(res.Render())
		ran = true
	}
	if all || experiment == "agnostic" {
		rows, err := eval.AgnosticismSweep(seed)
		if err != nil {
			return err
		}
		fmt.Print(eval.RenderAgnostic(rows))
		ran = true
	}
	if all || experiment == "balance" {
		rows, err := eval.ThresholdBalanceSweep(seed, nil)
		if err != nil {
			return err
		}
		fmt.Print(eval.RenderBalance(rows))
		ran = true
	}
	if all || experiment == "sizes" {
		rows, err := eval.TestSizeSweep(seed, nil)
		if err != nil {
			return err
		}
		fmt.Print(eval.RenderSizes(rows))
		ran = true
	}
	if all || experiment == "camera" {
		res, err := eval.CameraExperiment(setup, eval.CameraConfig{Seed: seed})
		if err != nil {
			return err
		}
		fmt.Print(res.Render())
		ran = true
	}
	if all || experiment == "faults" {
		res, err := eval.FaultSweep(setup, eval.FaultConfig{
			Seed:       seed,
			Workers:    max(workers, 1),
			Retransmit: retransmit,
		})
		if err != nil {
			return err
		}
		fmt.Print(res.Render())
		ran = true
	}
	if experiment == "adapt" {
		dir, err := os.MkdirTemp("", "cqm-adapt-demo-")
		if err != nil {
			return err
		}
		defer os.RemoveAll(dir)
		out, err := scenario.RunDemo(scenario.DemoConfig{
			Dir:     dir,
			Seed:    seed,
			Workers: max(workers, 1),
			Metrics: reg,
		})
		fmt.Print(out)
		if err != nil {
			return err
		}
		ran = true
	}
	if all || experiment == "resume" {
		res, err := eval.ResumeExperiment(setup, eval.ResumeConfig{Workers: max(workers, 1)})
		if err != nil {
			return err
		}
		fmt.Print(res.Render())
		ran = true
	}
	if all || experiment == "predict" {
		res, err := eval.PredictionExperiment(seed)
		if err != nil {
			return err
		}
		fmt.Print(res.Render())
		ran = true
	}
	if all || experiment == "fusion" {
		res, err := eval.FusionExperiment(seed)
		if err != nil {
			return err
		}
		fmt.Print(res.Render())
		ran = true
	}
	if all || experiment == "confidence" {
		res, err := eval.ThresholdConfidence(setup, 500, 0.95)
		if err != nil {
			return err
		}
		fmt.Print(res.Render())
		ran = true
	}
	if all || experiment == "cues" {
		rows, err := eval.CueAblation(seed)
		if err != nil {
			return err
		}
		fmt.Print(eval.RenderCues(rows))
		ran = true
	}
	if all || experiment == "crossval" {
		res, err := eval.CrossValidateWorkers(seed, 5, workers)
		if err != nil {
			return err
		}
		fmt.Print(res.Render())
		ran = true
	}
	if all || experiment == "noise" {
		rows, err := eval.NoiseRobustnessSweep(seed, nil)
		if err != nil {
			return err
		}
		fmt.Print(eval.RenderNoise(rows))
		ran = true
	}
	if all || experiment == "ablations" {
		ablations := []struct {
			title string
			fn    func(int64) ([]eval.AblationRow, error)
		}{
			{"Ablation — hybrid learning", eval.AblationHybrid},
			{"Ablation — consequent order", eval.AblationConsequents},
			{"Ablation — clustering method", eval.AblationClustering},
			{"Ablation — density model", eval.AblationDensity},
			{"Ablation — normalization", eval.AblationNormalization},
		}
		for _, a := range ablations {
			rows, err := a.fn(seed)
			if err != nil {
				return fmt.Errorf("%s: %w", a.title, err)
			}
			fmt.Print(eval.RenderAblation(a.title, rows))
		}
		ran = true
	}
	if !ran {
		return fmt.Errorf("unknown experiment %q", experiment)
	}
	return nil
}
