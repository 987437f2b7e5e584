package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"time"

	"repro/internal/obs"
	"repro/internal/obs/reportdiff"
	"repro/internal/serve"
)

// daemon is an in-process rsnserved on a loopback port and the HTTP
// client that talks to it.
type daemon struct {
	srv    *serve.Server
	base   string
	client *http.Client
}

// startDaemon boots rsnserved with one job worker and one engine worker
// (the same single-threaded engine the offline workloads run), a
// memory-only result store and the default flight recorder. A nil
// registry gives the daemon a private one.
func startDaemon(tr *obs.Tracer, reg *obs.Registry) (*daemon, error) {
	srv, err := serve.New(serve.Config{Workers: 1, EngineWorkers: engineWorkers, Tracer: tr, Registry: reg})
	if err != nil {
		return nil, err
	}
	if err := srv.Start(); err != nil {
		return nil, err
	}
	return &daemon{srv: srv, base: "http://" + srv.Addr(),
		client: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 4}}}, nil
}

// stop drains the daemon and waits for its listener to close.
func (d *daemon) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := d.srv.Shutdown(ctx)
	d.client.CloseIdleConnections()
	return err
}

// servedResult is what one session learned from the daemon: the
// outcomes of the submitted design and of its delta.
type servedResult struct {
	base, delta outcome
}

// session is one served round: submit a new design (store miss), wait
// for and fetch its report; submit it again (store hit) and check the
// report is byte-identical; then submit the design's edit script against
// the finished analysis (incremental delta) and fetch the delta report.
func (d *daemon) session(ds design, tr *obs.Tracer) (servedResult, error) {
	var res servedResult
	body, err := json.Marshal(serve.AnalysisRequest{ICL: ds.icl, Bench: ds.bench})
	if err != nil {
		return res, err
	}

	span := tr.Start(nil, "miss")
	st, code, err := d.post("/v1/analyses", body)
	if err == nil && code != http.StatusAccepted {
		err = fmt.Errorf("fresh submission answered HTTP %d (cache %q), want 202", code, st.Cache)
	}
	var first []byte
	if err == nil {
		first, err = d.awaitReport(st.ID)
	}
	span.End()
	if err != nil {
		return res, fmt.Errorf("%s: miss: %w", ds.name, err)
	}
	var rep obs.RunReport
	if err := json.Unmarshal(first, &rep); err != nil {
		return res, fmt.Errorf("%s: decode report: %w", ds.name, err)
	}
	if res.base, err = fromReport(&rep); err != nil {
		return res, fmt.Errorf("%s: %w", ds.name, err)
	}

	span = tr.Start(nil, "hit")
	st2, code, err := d.post("/v1/analyses", body)
	if err == nil && (code != http.StatusOK || st2.Cache != "hit") {
		err = fmt.Errorf("repeated submission answered HTTP %d (cache %q), want 200 hit", code, st2.Cache)
	}
	var again []byte
	if err == nil {
		again, err = d.get("/v1/analyses/" + st2.ID + "/report")
	}
	span.End()
	if err != nil {
		return res, fmt.Errorf("%s: hit: %w", ds.name, err)
	}
	if !bytes.Equal(first, again) {
		return res, fmt.Errorf("%s: store hit served a report that differs from the original", ds.name)
	}

	span = tr.Start(nil, "delta")
	st3, code, err := d.post("/v1/analyses/"+st.ID+"/delta", []byte(ds.delta))
	if err == nil && code != http.StatusAccepted {
		err = fmt.Errorf("delta answered HTTP %d, want 202", code)
	}
	var deltaDoc []byte
	if err == nil {
		deltaDoc, err = d.awaitReport(st3.ID)
	}
	span.End()
	if err != nil {
		return res, fmt.Errorf("%s: delta: %w", ds.name, err)
	}
	doc, err := reportdiff.ReadDeltaDoc(bytes.NewReader(deltaDoc))
	if err != nil {
		return res, fmt.Errorf("%s: delta document: %w", ds.name, err)
	}
	if res.delta, err = fromReport(doc.Report); err != nil {
		return res, fmt.Errorf("%s: delta: %w", ds.name, err)
	}
	return res, nil
}

// awaitReport polls a job until it finishes and returns its report.
func (d *daemon) awaitReport(id string) ([]byte, error) {
	for {
		var st serve.JobStatus
		data, err := d.get("/v1/analyses/" + id)
		if err != nil {
			return nil, err
		}
		if err := json.Unmarshal(data, &st); err != nil {
			return nil, err
		}
		switch st.State {
		case serve.StateDone:
			return d.get("/v1/analyses/" + id + "/report")
		case serve.StateFailed, serve.StateCanceled:
			return nil, fmt.Errorf("job %s %s: %s", id, st.State, st.Error)
		}
		time.Sleep(200 * time.Microsecond)
	}
}

func (d *daemon) post(path string, body []byte) (serve.JobStatus, int, error) {
	var st serve.JobStatus
	resp, err := d.client.Post(d.base+path, "application/json", bytes.NewReader(body))
	if err != nil {
		return st, 0, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return st, resp.StatusCode, err
	}
	if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusAccepted {
		return st, resp.StatusCode, fmt.Errorf("POST %s: HTTP %d: %s", path, resp.StatusCode, bytes.TrimSpace(data))
	}
	return st, resp.StatusCode, json.Unmarshal(data, &st)
}

func (d *daemon) get(path string) ([]byte, error) {
	resp, err := d.client.Get(d.base + path)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: HTTP %d: %s", path, resp.StatusCode, bytes.TrimSpace(data))
	}
	return data, nil
}
