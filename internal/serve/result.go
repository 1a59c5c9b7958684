package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"

	"repro/internal/exp"
	"repro/internal/metrics"
)

// ResultDoc is the JSON result document a run produces — the bytes the
// cache stores and every hit replays. Everything in it is a pure
// function of (code version, canonical workload spec): experiment
// tables, registry metadata, the canonical spec itself. Wall-clock
// measurements are deliberately absent — they would differ between a
// fresh run and a cache hit and break byte identity.
type ResultDoc struct {
	// ID is the content address (Spec.Key) of this document.
	ID string `json:"id"`
	// Version is the code version baked into the ID.
	Version string `json:"version"`
	// Spec is the canonical workload identity that was hashed — the
	// exact bytes of Spec.CanonicalJSON.
	Spec json.RawMessage `json:"spec"`
	// Experiment echoes the registry entry the spec addressed.
	Experiment ExperimentInfo `json:"experiment"`
	// Tables are the experiment's rendered tables (metrics tables
	// appended when the spec asked for them).
	Tables []TableDoc `json:"tables"`
	// TraceBytes is the size of the Chrome trace stream available at
	// /v1/runs/{id}/trace (0 when tracing was off).
	TraceBytes int `json:"trace_bytes,omitempty"`
}

// TableDoc is the JSON form of one exp.Table.
type TableDoc struct {
	Title   string     `json:"title"`
	Columns []string   `json:"columns"`
	Rows    [][]string `json:"rows"`
	Notes   []string   `json:"notes,omitempty"`
}

// executeSpec runs one canonical spec to completion and builds its
// result document. The interrupt channel aborts the experiment grid
// between cells; the resulting error wraps exp.ErrInterrupted. Panics
// from the experiment stack (a failed cell, a misconfigured driver)
// are converted to errors so one bad run never takes the daemon down.
func executeSpec(spec Spec, version string, interrupt <-chan struct{}) (body, traceBytes []byte, err error) {
	defer func() {
		if p := recover(); p != nil {
			if e, ok := p.(error); ok && errors.Is(e, exp.ErrInterrupted) {
				body, traceBytes, err = nil, nil, e
				return
			}
			body, traceBytes, err = nil, nil, fmt.Errorf("serve: %s: run panicked: %v", spec.Experiment, p)
		}
	}()

	e, err := exp.ByID(spec.Experiment)
	if err != nil {
		return nil, nil, err
	}
	ctx, err := spec.Context(interrupt)
	if err != nil {
		return nil, nil, err
	}
	var traceBuf bytes.Buffer
	if spec.Trace {
		ctx.Trace = exp.NewTraceSink(&traceBuf)
	}
	if spec.Metrics {
		ctx.Metrics = metrics.NewAggregate()
	}

	tables := e.Run(ctx)
	if spec.Metrics {
		tables = append(tables, exp.MetricsTables(ctx.Metrics.Snapshot())...)
	}
	if spec.Trace {
		if err := ctx.Trace.Close(); err != nil {
			return nil, nil, fmt.Errorf("serve: closing trace stream: %w", err)
		}
		traceBytes = traceBuf.Bytes()
	}

	doc := ResultDoc{
		ID:      spec.Key(version),
		Version: version,
		Spec:    json.RawMessage(spec.CanonicalJSON()),
		Experiment: ExperimentInfo{
			ID: e.ID, Title: e.Title, PaperRef: e.PaperRef, Expect: e.Expect,
		},
		TraceBytes: len(traceBytes),
	}
	for _, t := range tables {
		doc.Tables = append(doc.Tables, TableDoc{
			Title: t.Title, Columns: t.Columns, Rows: t.Rows, Notes: t.Notes,
		})
	}
	body, err = json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return nil, nil, err
	}
	return append(body, '\n'), traceBytes, nil
}
