package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"path/filepath"
	"strings"
	"time"
)

// womd is one running daemon and an HTTP client for its job API.
type womd struct {
	proc *child
	base string
	hc   *http.Client
	sc   scope // records the womd.stop span
}

// startWomd execs womd with the given extra flags on a free loopback port
// and returns once GET /readyz answers 200, with the time that took.
func startWomd(ctx context.Context, e *env, logName string, extra ...string) (*womd, float64, error) {
	port, err := freePort()
	if err != nil {
		return nil, 0, err
	}
	addr := fmt.Sprintf("127.0.0.1:%d", port)
	args := append([]string{"-addr", addr}, extra...)
	sp := e.sc.start("womd.start")
	defer sp.End()
	t := time.Now()
	proc, err := e.procs.start(filepath.Join(e.work, logName), filepath.Join(e.bin, "womd"), args...)
	if err != nil {
		return nil, 0, err
	}
	w := &womd{proc: proc, base: "http://" + addr, sc: e.sc, hc: &http.Client{
		Transport: &http.Transport{MaxIdleConnsPerHost: 8, DisableCompression: true},
	}}
	for {
		if proc.exited() {
			return nil, 0, fmt.Errorf("womd exited before ready (see %s): %v", logName, proc.err)
		}
		if since(t) > 60 {
			proc.stop()
			return nil, 0, errors.New("womd not ready within 60 s")
		}
		if err := ctx.Err(); err != nil {
			proc.stop()
			return nil, 0, err
		}
		status, _, err := w.do(ctx, http.MethodGet, "/readyz", nil)
		if err == nil && status == http.StatusOK {
			return w, since(t), nil
		}
		// Polling faster takes CPU from womd while it starts, on two
		// cores; 1 ms adds at most that to one start.
		time.Sleep(time.Millisecond)
	}
}

// freePort asks the kernel for an unused loopback port.
func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// stop drains the daemon with SIGTERM and waits for it to exit.
func (w *womd) stop() {
	sp := w.sc.start("womd.stop")
	defer sp.End()
	w.hc.CloseIdleConnections()
	w.proc.stop()
}

// do sends one request and reads the whole response body.
func (w *womd) do(ctx context.Context, method, path string, body []byte) (int, []byte, error) {
	req, err := http.NewRequestWithContext(ctx, method, w.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	resp, err := w.hc.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

// jobView is the part of womd's job view the benchmark reads.
type jobView struct {
	ID          string `json:"id"`
	State       string `json:"state"`
	Error       string `json:"error"`
	Cached      bool   `json:"cached"`
	SubmittedAt string `json:"submitted_at"`
	StartedAt   string `json:"started_at"`
	FinishedAt  string `json:"finished_at"`
}

// since returns finished_at minus the given RFC 3339 stamp.
func (v jobView) since(stamp string) (time.Duration, error) {
	a, err := time.Parse(time.RFC3339Nano, stamp)
	if err != nil {
		return 0, err
	}
	b, err := time.Parse(time.RFC3339Nano, v.FinishedAt)
	if err != nil {
		return 0, err
	}
	return b.Sub(a), nil
}

// submit POSTs a job; anything but 202 Accepted, 429 included, is an error.
func (w *womd) submit(ctx context.Context, body []byte) (jobView, error) {
	var v jobView
	status, b, err := w.do(ctx, http.MethodPost, "/v1/jobs", body)
	if err != nil {
		return v, err
	}
	if status != http.StatusAccepted {
		return v, fmt.Errorf("POST /v1/jobs: %d %s", status, bytes.TrimSpace(b))
	}
	return v, json.Unmarshal(b, &v)
}

// waitDone follows the job's event stream until its done event.
func (w *womd) waitDone(ctx context.Context, id string) (jobView, error) {
	var v jobView
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, w.base+"/v1/jobs/"+id+"/stream", nil)
	if err != nil {
		return v, err
	}
	resp, err := w.hc.Do(req)
	if err != nil {
		return v, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return v, fmt.Errorf("GET stream of %s: %d", id, resp.StatusCode)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 16<<20)
	event := ""
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: ") && event == "done":
			err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &v)
			return v, err
		}
	}
	if err := sc.Err(); err != nil {
		return v, err
	}
	return v, fmt.Errorf("stream of %s ended without a done event", id)
}

// result GETs a finished job's view and result document.
func (w *womd) result(ctx context.Context, id string) (jobView, json.RawMessage, error) {
	var doc struct {
		Job    jobView         `json:"job"`
		Result json.RawMessage `json:"result"`
	}
	status, b, err := w.do(ctx, http.MethodGet, "/v1/jobs/"+id+"/result", nil)
	if err != nil {
		return doc.Job, nil, err
	}
	if status != http.StatusOK {
		return doc.Job, nil, fmt.Errorf("GET result of %s: %d %s", id, status, bytes.TrimSpace(b))
	}
	err = json.Unmarshal(b, &doc)
	return doc.Job, doc.Result, err
}

// remove DELETEs a finished job or an uploaded trace.
func (w *womd) remove(ctx context.Context, path string) error {
	status, b, err := w.do(ctx, http.MethodDelete, path, nil)
	if err != nil {
		return err
	}
	if status != http.StatusOK {
		return fmt.Errorf("DELETE %s: %d %s", path, status, bytes.TrimSpace(b))
	}
	return nil
}

// upload POSTs a trace and returns its id.
func (w *womd) upload(ctx context.Context, label string, body []byte) (string, error) {
	status, b, err := w.do(ctx, http.MethodPost, "/v1/traces?label="+label, body)
	if err != nil {
		return "", err
	}
	if status != http.StatusCreated {
		return "", fmt.Errorf("POST /v1/traces: %d %s", status, bytes.TrimSpace(b))
	}
	var st struct {
		ID    string `json:"id"`
		Count int    `json:"count"`
	}
	return st.ID, json.Unmarshal(b, &st)
}

// jobOp is one timed submit → done → result round trip.
type jobOp struct {
	view    jobView
	result  json.RawMessage
	latency time.Duration // submit start to result received
}

// runJob submits body, waits on the event stream, fetches the result and
// deletes the job (womd keeps at most 4096 job records). Spans go under
// sc when it traces.
func (w *womd) runJob(ctx context.Context, sc scope, body []byte) (jobOp, error) {
	var op jobOp
	t := time.Now()
	sp := sc.start("womd.submit")
	v, err := w.submit(ctx, body)
	sp.End()
	if err != nil {
		return op, err
	}
	sp = sc.start("womd.stream")
	done, err := w.waitDone(ctx, v.ID)
	sp.End()
	if err != nil {
		return op, err
	}
	if done.State != "succeeded" {
		return op, fmt.Errorf("job %s %s: %s", v.ID, done.State, done.Error)
	}
	sp = sc.start("womd.result")
	op.view, op.result, err = w.result(ctx, v.ID)
	sp.End()
	op.latency = time.Since(t)
	if err != nil {
		return op, err
	}
	sp = sc.start("womd.delete")
	err = w.remove(ctx, "/v1/jobs/"+v.ID)
	sp.End()
	return op, err
}

// canonical re-encodes a JSON document with sorted keys and no
// insignificant whitespace, keeping number literals as written.
func canonical(doc []byte) ([]byte, error) {
	dec := json.NewDecoder(bytes.NewReader(doc))
	dec.UseNumber()
	var v any
	if err := dec.Decode(&v); err != nil {
		return nil, err
	}
	return json.Marshal(v)
}
