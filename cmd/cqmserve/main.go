// Command cqmserve is the CQM scoring daemon: it exposes the context
// quality measure over HTTP/JSON (POST /score, /score/batch) and over the
// compact binary frame protocol sharing the particle codec, shards the
// scoring state by source id across worker shards, batches admitted frames
// into single ScoreBatch calls, and applies explicit admission control —
// a full shard queue answers 429 / reject frames instead of blocking or
// dropping.
//
// The served model comes from a ckpt measure artifact (-model, hot
// reloaded with -model-watch) or, for self-contained runs, from an
// in-process training pass (-train-seed). SIGINT/SIGTERM triggers a
// graceful drain: admission stops, every already-admitted frame is
// answered, then the process exits 0.
//
// -adapt DIR turns on the self-healing model lifecycle: quality-engine
// drift triggers feed an adaptation supervisor that shadow-retrains on a
// pseudo-labelled window, gates the candidate on held-out validation,
// hot-promotes it through the model watcher, watches a post-promotion
// canary window, and rolls back to the last-good model on regression.
// DIR holds the served model copy, its threshold, the last-good artifact,
// and the crash-safe adaptation journal; /adapt serves the supervisor
// status. -model, -train-seed and -threshold only seed an empty DIR: a
// restart serves the model and threshold already there, without training.
package main

import (
	"bytes"
	"context"
	"errors"
	"flag"
	"fmt"
	"io/fs"
	"net"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"syscall"
	"time"

	"cqm/internal/adapt"
	"cqm/internal/ckpt"
	"cqm/internal/core"
	"cqm/internal/obs"
	"cqm/internal/particle"
	"cqm/internal/quality"
	"cqm/internal/serve"
)

type options struct {
	addr         string
	binary       string
	shards       int
	queue        int
	batch        int
	model        string
	watch        time.Duration
	threshold    float64
	trainSeed    int64
	workers      int
	metricsOut   string
	pprof        bool
	shedTarget   time.Duration
	shedInterval time.Duration
	idleTimeout  time.Duration
	adaptDir     string
}

func main() {
	var opts options
	flag.StringVar(&opts.addr, "addr", "127.0.0.1:8080", "HTTP address: /score, /score/batch, /metrics, /quality")
	flag.StringVar(&opts.binary, "binary", "", "also serve the binary frame protocol on this TCP address")
	flag.IntVar(&opts.shards, "shards", 0, "worker shards (0 = GOMAXPROCS)")
	flag.IntVar(&opts.queue, "queue", 1024, "per-shard admission queue depth")
	flag.IntVar(&opts.batch, "batch", 256, "max frames folded into one ScoreBatch call")
	flag.StringVar(&opts.model, "model", "", "serve this ckpt measure artifact (default: train in process; with -adapt, only seeds an empty DIR)")
	flag.DurationVar(&opts.watch, "model-watch", 0, "poll the served model artifact for hot reloads at this interval (0 = off; with -adapt, the copy in DIR is what is watched)")
	flag.Float64Var(&opts.threshold, "threshold", -1, "acceptance threshold s (negative = trained threshold, or 0.5 with -model; with -adapt, only seeds an empty DIR)")
	flag.Int64Var(&opts.trainSeed, "train-seed", 1, "seed of the in-process training pass when no -model is given (with -adapt, only seeds an empty DIR)")
	flag.IntVar(&opts.workers, "workers", 0, "training worker count (0 = one per CPU); the model is identical at every setting")
	flag.StringVar(&opts.metricsOut, "metrics-out", "", "flush a final JSON metrics snapshot to this file on shutdown")
	flag.BoolVar(&opts.pprof, "pprof", false, "serve net/http/pprof handlers at /debug/pprof/")
	flag.DurationVar(&opts.shedTarget, "shed-target", 25*time.Millisecond, "CoDel load-shedding target queue sojourn (0 = shedding off)")
	flag.DurationVar(&opts.shedInterval, "shed-interval", 100*time.Millisecond, "CoDel load-shedding observation interval")
	flag.DurationVar(&opts.idleTimeout, "idle-timeout", 2*time.Minute, "disconnect binary peers idle or dribbling for this long (negative = off)")
	flag.StringVar(&opts.adaptDir, "adapt", "", "enable the self-healing model lifecycle with this state directory (model copy, threshold, last-good, adaptation journal)")
	flag.Parse()

	if err := run(opts); err != nil {
		fmt.Fprintf(os.Stderr, "cqmserve: %v\n", err)
		os.Exit(1)
	}
}

// metricStartup is the gauge family of the start-up phases, each set
// once from the daemon's own clock.
const metricStartup = "cqm_startup_seconds"

func run(opts options) error {
	start := time.Now()
	if opts.shards == 0 {
		opts.shards = runtime.GOMAXPROCS(0)
	}
	reg := obs.NewRegistry()
	reg.Help(metricStartup, "Seconds of cqmserve start-up: phase=train is the in-process training pass, phase=listen all of start-up until every listener is open.")
	handle := ckpt.NewHandle(nil)

	var watcher *ckpt.ModelWatcher
	threshold := opts.threshold
	modelPath := opts.model
	if opts.adaptDir != "" {
		// The lifecycle promotes and rolls back by rewriting the watched
		// artifact, so it serves the copy in DIR: every write the loop
		// makes stays inside DIR, and a restart serves what the journal's
		// history left there.
		modelPath = filepath.Join(opts.adaptDir, "model.json")
		var err error
		if threshold, err = seedAdaptDir(opts, modelPath, reg); err != nil {
			return err
		}
	}
	if modelPath != "" {
		var err error
		watcher, err = ckpt.NewModelWatcher(ckpt.WatchConfig{
			Path: modelPath,
			// Under the adaptation lifecycle, last-good persistence is the
			// supervisor's decision (after a canary pass), not the
			// watcher's: a reload during an open canary must not clobber
			// the rollback target.
			DeferLastGood: opts.adaptDir != "",
			Metrics:       reg,
		}, handle)
		if err != nil {
			return err
		}
		if _, err := watcher.Poll(); err != nil {
			fmt.Fprintf(os.Stderr, "cqmserve: initial model load: %v\n", err)
		}
		if handle.Load() == nil {
			fmt.Fprintf(os.Stderr, "cqmserve: no model yet at %s; serving 503 until one appears\n", modelPath)
		}
		if threshold < 0 {
			threshold = 0.5
		}
	} else {
		m, trained, err := trainModel(opts, reg)
		if err != nil {
			return err
		}
		handle.Store(m)
		if threshold < 0 {
			threshold = trained
		}
	}

	var sup *adapt.Supervisor
	if opts.adaptDir != "" {
		var build core.BuildConfig
		build.Metrics = reg
		build.Clustering.Workers = opts.workers
		build.Hybrid.Workers = opts.workers
		build.Hybrid.DivergenceRetries = 2
		var err error
		sup, err = adapt.New(adapt.Config{
			Dir:       filepath.Join(opts.adaptDir, "state"),
			ModelPath: modelPath,
			Watcher:   watcher,
			Handle:    handle,
			Threshold: threshold,
			Build:     build,
			Metrics:   reg,
		})
		if err != nil {
			return fmt.Errorf("adaptation supervisor: %w", err)
		}
		defer sup.Close()
	}

	qcfg := quality.Config{Threshold: threshold, Metrics: reg}
	if sup != nil {
		qcfg.OnTrigger = func(t quality.Trigger) { sup.Trigger(t) }
	}
	engine := quality.NewEngine(qcfg)
	scfg := serve.Config{
		Shards:       opts.shards,
		QueueDepth:   opts.queue,
		BatchSize:    opts.batch,
		Threshold:    threshold,
		Handle:       handle,
		Metrics:      reg,
		Quality:      engine,
		ShedTarget:   opts.shedTarget,
		ShedInterval: opts.shedInterval,
		IdleTimeout:  opts.idleTimeout,
	}
	if sup != nil {
		scfg.Adapt = sup
	}
	srv, err := serve.New(scfg)
	if err != nil {
		return err
	}

	mux := obs.NewMux(obs.MuxConfig{Registry: reg, Quality: quality.Handler(engine, nil), Pprof: opts.pprof})
	score := srv.HTTPHandler()
	mux.Handle("/score", score)
	mux.Handle("/score/batch", score)
	if sup != nil {
		mux.Handle("/adapt", sup.Handler())
	}

	// Install the drain handler before any listener opens: a supervisor
	// may signal as soon as it reads an address line, and a signal that
	// lands before Notify kills the process undrained.
	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(stop)

	httpLn, err := net.Listen("tcp", opts.addr)
	if err != nil {
		return fmt.Errorf("http listener: %w", err)
	}
	var binLn net.Listener
	if opts.binary != "" {
		if binLn, err = net.Listen("tcp", opts.binary); err != nil {
			return fmt.Errorf("binary listener: %w", err)
		}
	}
	reg.Gauge(metricStartup, "phase", "listen").Set(time.Since(start).Seconds())

	httpSrv := serve.NewHTTPServer(mux)
	go func() { _ = httpSrv.Serve(httpLn) }()
	fmt.Printf("http: http://%s/score (%d shards, queue %d, batch %d, threshold %.3f)\n",
		httpLn.Addr(), opts.shards, opts.queue, opts.batch, threshold)
	binDone := make(chan error, 1)
	if binLn != nil {
		go func() { binDone <- srv.ServeBinary(binLn) }()
		fmt.Printf("binary: %s (%d-byte particle frames + cue section)\n", binLn.Addr(), particle.FrameLen)
	}
	if watcher != nil && opts.watch > 0 {
		watcher.Start(opts.watch, func(err error) {
			fmt.Fprintf(os.Stderr, "cqmserve: model watch: %v\n", err)
		})
	}
	adaptStop := make(chan struct{})
	adaptDone := make(chan struct{})
	if sup != nil {
		fmt.Printf("adaptation: state in %s, status at /adapt\n", opts.adaptDir)
		go func() {
			defer close(adaptDone)
			tick := time.NewTicker(2 * time.Second)
			defer tick.Stop()
			for {
				select {
				case <-adaptStop:
					return
				case <-tick.C:
					if err := sup.Drain(); err != nil {
						fmt.Fprintf(os.Stderr, "cqmserve: adaptation: %v\n", err)
					}
				}
			}
		}()
	}

	sig := <-stop
	signal.Stop(stop)
	fmt.Printf("received %s, draining\n", sig)

	// Shutdown order: stop reloads, stop accepting connections, drain the
	// scoring core (in-flight frames answered, new ones rejected), then
	// close the HTTP front and flush artifacts.
	if watcher != nil {
		watcher.Stop()
	}
	if binLn != nil {
		_ = binLn.Close()
	}
	srv.Drain()
	if sup != nil {
		close(adaptStop)
		<-adaptDone
		st := sup.Status()
		fmt.Printf("adaptation: %d triggers, %d retrains, %d quarantined, %d promotions, %d rollbacks, %d canary passes\n",
			st.Triggers, st.Retrains, st.Quarantined, st.Promotions, st.Rollbacks, st.CanaryPass)
	}
	if binLn != nil {
		if err := <-binDone; err != nil {
			fmt.Fprintf(os.Stderr, "cqmserve: binary front: %v\n", err)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	_ = httpSrv.Shutdown(ctx)

	stats := srv.Stats()
	fmt.Printf("drained: admitted %d, scored %d (accept %d / discard %d / ε %d), rejected %d overload, %d draining, %d no-model, %d internal, %d deadline, %d shed; %d shard restarts\n",
		stats.Admitted, stats.Scored(), stats.Accepted, stats.Discarded, stats.Epsilon,
		stats.RejectedOverload, stats.RejectedDraining, stats.RejectedUnavailable, stats.RejectedInternal,
		stats.RejectedDeadline, stats.RejectedShed, stats.ShardRestarts)
	if answered := stats.Scored() + stats.AdmittedRejects(); answered != stats.Admitted {
		return fmt.Errorf("drain accounting violated: admitted %d, answered %d", stats.Admitted, answered)
	}

	if opts.metricsOut != "" {
		if err := writeMetricsSnapshot(opts.metricsOut, reg); err != nil {
			return err
		}
		fmt.Printf("final metrics snapshot written to %s\n", opts.metricsOut)
	}
	return nil
}

// trainModel runs the in-process training pass of a run without -model
// and records its duration as the train start-up phase.
func trainModel(opts options, reg *obs.Registry) (*core.Measure, float64, error) {
	fmt.Printf("training in-process model (seed %d)\n", opts.trainSeed)
	start := time.Now()
	m, trained, err := serve.TrainQuickModel(opts.trainSeed, opts.workers)
	if err != nil {
		return nil, 0, fmt.Errorf("training model: %w", err)
	}
	reg.Gauge(metricStartup, "phase", "train").Set(time.Since(start).Seconds())
	fmt.Printf("trained: %d rules, threshold %.3f\n", m.Rules(), trained)
	return m, trained, nil
}

// Beside the served model copy, an -adapt state directory holds the
// acceptance threshold that copy is served with, as a ckpt artifact.
const (
	thresholdName = "threshold.json"
	thresholdKind = "threshold"
)

// seedAdaptDir returns the threshold the -adapt state directory serves
// modelPath with. A directory that holds a persisted threshold has been
// seeded: a restart serves the model and threshold the journal's history
// left there, ignores -model, -train-seed and -threshold, and trains
// nothing. Any other directory is seeded from a copy of -model (the
// lifecycle never rewrites the operator's file) or from the in-process
// training pass. The threshold lands after the model, so a crash while
// seeding leaves a directory that is seeded again.
func seedAdaptDir(opts options, modelPath string, reg *obs.Registry) (float64, error) {
	thresholdPath := filepath.Join(opts.adaptDir, thresholdName)
	threshold := opts.threshold
	_, err := ckpt.ReadArtifact(thresholdPath, thresholdKind, &threshold)
	if err == nil {
		fmt.Printf("adaptation: serving the persisted %s at threshold %.3f (-model, -train-seed and -threshold only seed an empty directory)\n",
			modelPath, threshold)
		return threshold, nil
	}
	if !errors.Is(err, fs.ErrNotExist) {
		return 0, err
	}
	if err := os.MkdirAll(opts.adaptDir, 0o755); err != nil {
		return 0, err
	}
	if opts.model != "" {
		// A seeded directory is never seeded again, so a -model the
		// watcher would refuse must not seed it.
		data, err := os.ReadFile(opts.model)
		var m core.Measure
		if err == nil {
			_, err = ckpt.DecodeArtifact(data, ckpt.KindMeasure, &m)
		}
		if err == nil {
			err = ckpt.SmokeProbe(&m)
		}
		if err != nil {
			return 0, fmt.Errorf("-adapt seeds its directory from a copy of -model, which must be a valid measure artifact: %w", err)
		}
		if err := ckpt.AtomicWriteFile(modelPath, data, 0o644); err != nil {
			return 0, err
		}
		if threshold < 0 {
			threshold = 0.5
		}
	} else {
		m, trained, err := trainModel(opts, reg)
		if err != nil {
			return 0, err
		}
		if err := ckpt.WriteArtifact(modelPath, ckpt.Manifest{Kind: ckpt.KindMeasure}, m); err != nil {
			return 0, err
		}
		if threshold < 0 {
			threshold = trained
		}
	}
	if err := ckpt.WriteArtifact(thresholdPath, ckpt.Manifest{Kind: thresholdKind}, threshold); err != nil {
		return 0, err
	}
	fmt.Printf("adaptation: seeded %s at threshold %.3f\n", modelPath, threshold)
	return threshold, nil
}

// writeMetricsSnapshot flushes the registry as JSON via the crash-safe
// artifact writer.
func writeMetricsSnapshot(path string, reg *obs.Registry) error {
	var buf bytes.Buffer
	if err := reg.WriteJSON(&buf); err != nil {
		return fmt.Errorf("encoding metrics snapshot: %w", err)
	}
	if err := ckpt.AtomicWriteFile(path, buf.Bytes(), 0o644); err != nil {
		return fmt.Errorf("writing metrics snapshot: %w", err)
	}
	return nil
}
