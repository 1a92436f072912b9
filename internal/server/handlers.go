package server

// The HTTP surface of the daemon. Three job endpoints plus the metrics
// endpoint the batch tools already expose:
//
//	POST /v1/jobs                 submit a JobSpec; returns the job id
//	GET  /v1/jobs/{id}            poll job status
//	GET  /v1/jobs/{id}/result     fetch results: a metrics CSV by default,
//	                              or one node's raw counter dump with
//	                              ?run=I&node=J (byte-identical to the
//	                              .bgpc file bgp.Run would write)
//	GET  /metrics                 the obs registry snapshot (JSON)
//	GET  /healthz                 liveness: the process is up; answers
//	                              {"ok":true} and touches no disk
//	GET  /readyz                  readiness: the job queue below
//	                              saturation, else 503
//
// Error responses are JSON objects {"error": "..."}: 400 for malformed or
// invalid specs, 404 for unknown ids and indices, 409 for results fetched
// before the job is done, 413/415 for oversized or non-JSON submit bodies,
// 429 for admission refusals (bounded queue, per-tenant concurrency), 500
// for a submission the journal could not make durable, 405 from the mux.

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"mime"
	"net/http"
	"strconv"
	"time"

	bgp "bgpsim"
	"bgpsim/internal/epochmemo"
	"bgpsim/internal/obs"
)

// maxSpecBytes bounds a submission body (a MaxRunsPerJob-run spec is a few
// tens of KB; 1 MB is generous).
const maxSpecBytes = 1 << 20

// JobStatus is the wire form of a job's state. Recoveries reports how many
// times a daemon crash re-queued the job (journal replay).
type JobStatus struct {
	ID         string `json:"id"`
	Tenant     string `json:"tenant"`
	State      string `json:"state"`
	Runs       int    `json:"runs"`
	Completed  int    `json:"completed"`
	Failed     int    `json:"failed"`
	CacheHits  int    `json:"cache_hits"`
	Recoveries int    `json:"recoveries,omitempty"`
	Error      string `json:"error,omitempty"`
	Created    int64  `json:"created_unix"`
}

// status snapshots a job for the API.
func (j *job) status() JobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	return JobStatus{
		ID:         j.id,
		Tenant:     j.tenant,
		State:      j.state,
		Runs:       len(j.cfgs),
		Completed:  j.completed,
		Failed:     j.failed,
		CacheHits:  j.cacheHits,
		Recoveries: j.recoveries,
		Error:      j.errMsg,
		Created:    j.created.Unix(),
	}
}

// Handler returns the daemon's HTTP mux.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleStatus)
	mux.HandleFunc("GET /v1/jobs/{id}/result", s.handleResult)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		io.WriteString(w, "{\"ok\":true}\n")
	})
	mux.HandleFunc("GET /readyz", s.handleReady)
	return mux
}

// handleMetrics serves the registry snapshot, first refreshing the gauges
// that mirror state no run event carries: the process-wide epoch memo's
// occupancy (what -epochmemo-bytes bounds), run-marks included.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	memo := epochmemo.Default().Stats()
	s.reg.Gauge(obs.MetricEpochMemoPrefix + "resident_bytes").Set(memo.Cost)
	s.reg.Gauge(obs.MetricEpochMemoPrefix + "entries").Set(int64(memo.Entries))
	s.reg.Handler().ServeHTTP(w, r)
}

// handleReady reports readiness: the job queue has room. (The journal is
// replayed before New returns, so no handler ever sees a server mid-replay.)
// A saturated queue answers 503 so a load balancer steers submissions to
// instances that can actually admit them.
func (s *Server) handleReady(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	depth := len(s.pending)
	s.mu.Unlock()
	if depth >= s.cfg.QueueDepth {
		writeError(w, http.StatusServiceUnavailable, "job queue saturated (%d queued)", depth)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"ready": true, "queued": depth})
}

// writeJSON renders v with a status code.
func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

// writeError renders a JSON error body.
func writeError(w http.ResponseWriter, code int, format string, args ...any) {
	writeJSON(w, code, map[string]string{"error": fmt.Sprintf(format, args...)})
}

// handleSubmit decodes, validates and admits one job submission. The body
// must declare Content-Type: application/json and fit maxSpecBytes — both
// are checked before any bytes reach the JSON decoder.
func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	ct, _, err := mime.ParseMediaType(r.Header.Get("Content-Type"))
	if err != nil || ct != "application/json" {
		writeError(w, http.StatusUnsupportedMediaType,
			"submissions must declare Content-Type: application/json (got %q)", r.Header.Get("Content-Type"))
		return
	}
	body := http.MaxBytesReader(w, r.Body, maxSpecBytes)
	spec, cfgs, err := DecodeJobSpec(body)
	if err != nil {
		code := http.StatusBadRequest
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			code = http.StatusRequestEntityTooLarge
			err = fmt.Errorf("request body exceeds the %d-byte limit", maxSpecBytes)
		}
		writeError(w, code, "%v", err)
		return
	}
	j, created, err := s.Submit(spec, cfgs)
	if err != nil {
		var adm *admissionError
		if errors.As(err, &adm) {
			writeError(w, http.StatusTooManyRequests, "%v", err)
			return
		}
		// The journal could not make the submission durable; refusing it
		// outright beats acknowledging a job a crash would silently lose.
		writeError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	code := http.StatusOK
	if created {
		code = http.StatusAccepted
	}
	writeJSON(w, code, j.status())
}

// handleStatus reports one job's state.
func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	j, ok := s.lookup(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "unknown job %q", r.PathValue("id"))
		return
	}
	writeJSON(w, http.StatusOK, j.status())
}

// handleResult serves a completed job's results. Without parameters the
// body is a CSV of per-run whole-application metrics; with ?run=I&node=J
// it is run I's node-J counter dump, exactly the bytes bgp.Run writes to
// a DumpDir (and the bytes the checkpoint store CRC-validates).
func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	j, ok := s.lookup(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "unknown job %q", r.PathValue("id"))
		return
	}
	st := j.status()
	switch st.State {
	case StateDone:
	case StateFailed:
		writeError(w, http.StatusConflict, "job %s failed: %s", st.ID, st.Error)
		return
	default:
		writeError(w, http.StatusConflict, "job %s is %s; poll /v1/jobs/%s until done", st.ID, st.State, st.ID)
		return
	}
	q := r.URL.Query()
	if q.Has("run") || q.Has("node") {
		s.serveDump(w, j, q.Get("run"), q.Get("node"))
		return
	}
	w.Header().Set("Content-Type", "text/csv")
	fmt.Fprintln(w, "run,label,ranks,nodes,exec_cycles,exec_seconds,mflops,mflops_per_chip,simd_share,ddr_traffic_bytes,l1_hit_rate,l3_miss_rate")
	j.mu.Lock()
	results := append([]*bgp.Result(nil), j.results...)
	j.mu.Unlock()
	for i, res := range results {
		m := res.Metrics
		fmt.Fprintf(w, "%d,%s,%d,%d,%d,%.9g,%.9g,%.9g,%.9g,%d,%.9g,%.9g\n",
			i, m.Label, res.Config.Ranks, m.Nodes, m.ExecCycles, m.ExecSeconds,
			m.MFLOPS, m.MFLOPSPerChip, m.SIMDShare, m.DDRTrafficBytes,
			m.L1HitRate, m.L3MissRate)
	}
}

// serveDump writes one raw counter dump.
func (s *Server) serveDump(w http.ResponseWriter, j *job, runStr, nodeStr string) {
	runIdx, err := strconv.Atoi(runStr)
	if err != nil {
		writeError(w, http.StatusBadRequest, "bad run index %q", runStr)
		return
	}
	nodeIdx := 0
	if nodeStr != "" {
		if nodeIdx, err = strconv.Atoi(nodeStr); err != nil {
			writeError(w, http.StatusBadRequest, "bad node index %q", nodeStr)
			return
		}
	}
	j.mu.Lock()
	var res *bgp.Result
	if runIdx >= 0 && runIdx < len(j.results) {
		res = j.results[runIdx]
	}
	j.mu.Unlock()
	if res == nil {
		writeError(w, http.StatusNotFound, "run %d not in job (have %d runs)", runIdx, len(j.cfgs))
		return
	}
	if nodeIdx < 0 || nodeIdx >= len(res.Dumps) {
		writeError(w, http.StatusNotFound, "node %d not in run %d (have %d dumps)", nodeIdx, runIdx, len(res.Dumps))
		return
	}
	var buf bytes.Buffer
	if err := res.Dumps[nodeIdx].Encode(&buf); err != nil {
		writeError(w, http.StatusInternalServerError, "encoding dump: %v", err)
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("Last-Modified", j.created.UTC().Format(time.RFC1123))
	w.Write(buf.Bytes())
}
