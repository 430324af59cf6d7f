package main

import (
	"bytes"
	"fmt"
	"runtime"
	"time"

	"repro"
	"repro/internal/channel"
	"repro/internal/core"
	"repro/internal/rng"
	"repro/internal/trace"
)

// bench is the trained template plus everything measured while setting
// it up.
type bench struct {
	cfg  config
	tmpl *core.System

	setupSec   []float64 // per repetition: SetupWith plus the workload's serving side
	datasetSec float64   // traced runs: trace.Build alone
	trainSec   float64   // traced runs: NewScheme plus Train
	// setupOK reports that every repetition, and the step-by-step build
	// of a traced run, produced byte-identical model weights.
	setupOK bool
}

// newBench sets the template up cfg.setupReps times, timing each
// repetition from SetupWith to a ready serving side, and keeps the last
// template. Traced runs also rebuild it through the public steps
// SetupWith composes, timing the dataset and the training apart.
func newBench(cfg config, ready func(*core.System) (func(), error)) (*bench, error) {
	b := &bench{cfg: cfg, setupOK: true}
	var model []byte
	for i := 0; i < cfg.setupReps; i++ {
		started := time.Now()
		vs, err := vehiclekey.SetupWith(vehiclekey.Options{
			Seed:            modelSeed,
			TrainingWindows: cfg.trainWindows,
			TrainingEpochs:  cfg.trainEpochs,
		})
		if err != nil {
			return nil, err
		}
		release, err := ready(vs.System())
		if err != nil {
			return nil, err
		}
		b.setupSec = append(b.setupSec, time.Since(started).Seconds())
		release()
		// Start every repetition, and the workload after them, from a
		// collected heap, so the peak RSS does not depend on where the
		// collector happened to stand.
		runtime.GC()

		var buf bytes.Buffer
		if err := vs.SaveModel(&buf); err != nil {
			return nil, fmt.Errorf("save model: %w", err)
		}
		if model != nil && !bytes.Equal(model, buf.Bytes()) {
			b.setupOK = false
		}
		model = buf.Bytes()
		b.tmpl = vs.System()
	}
	if cfg.trace {
		stepModel, err := b.setupSteps()
		if err != nil {
			return nil, err
		}
		if !bytes.Equal(model, stepModel) {
			b.setupOK = false
		}
	}
	return b, nil
}

// setupSteps repeats SetupWith's defaults and steps one by one
// (vehiclekey.go): the dataset, then the scheme and its training.
func (b *bench) setupSteps() ([]byte, error) {
	var sys core.Config
	sys.Normalize()
	sc := trace.NewScenario(channel.Urban, channel.V2I)

	started := time.Now()
	ds, err := trace.Build(sc, modelSeed, b.cfg.trainWindows, sys.SeqLen, trace.DefaultExtract())
	if err != nil {
		return nil, err
	}
	b.datasetSec = time.Since(started).Seconds()

	started = time.Now()
	src := rng.New(modelSeed + 1)
	train, _, _ := ds.Split(0.75, 0.05, src.Derive("split"))
	s, err := core.NewScheme("", sys, src.Derive("sys"))
	if err != nil {
		return nil, err
	}
	if _, err := s.Train(train, b.cfg.trainEpochs, src.Derive("train")); err != nil {
		return nil, err
	}
	b.trainSec = time.Since(started).Seconds()

	var buf bytes.Buffer
	if err := s.Save(&buf); err != nil {
		return nil, fmt.Errorf("save model: %w", err)
	}
	return buf.Bytes(), nil
}
