package api

// Fault-management endpoints, backed by one faultd.Monitor per serving
// shard:
//
//	GET    /v1/faults          -> the armed fault set
//	POST   /v1/faults          {"spec":"stuck:3:1:cross"} or {"faults":[…]} -> the updated set
//	DELETE /v1/faults          -> {"cleared":k}
//	GET    /v1/faults/report   -> full fault-management state (stats, candidates, quarantine)
//	POST   /v1/probe           -> run a probe round now, return its report
//
// The ?shard=k query parameter selects the fabric; it defaults to
// shard 0. Without any monitor these endpoints answer 503.

import (
	"fmt"
	"net/http"

	"brsmn/internal/faultd"
)

func (s *Server) withFaults(h func(http.ResponseWriter, *http.Request)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if s.defaultMonitor() == nil {
			writeError(w, http.StatusServiceUnavailable, CodeUnavailable, "api: fault monitor not enabled")
			return
		}
		h(w, r)
	}
}

// defaultMonitor is the monitor fault requests address without an
// explicit ?shard: shard 0's, or nil without monitors.
func (s *Server) defaultMonitor() *faultd.Monitor {
	if len(s.monitors) > 0 {
		return s.monitors[0]
	}
	return nil
}

// monitorFor resolves the ?shard=k selector. A selector past the last
// monitor is a 404, so clients can't silently address a fabric that
// isn't there.
func (s *Server) monitorFor(w http.ResponseWriter, r *http.Request) *faultd.Monitor {
	q := r.URL.Query()
	var fields []FieldError
	k := queryInt(q, "shard", 0, &fields)
	if len(fields) > 0 {
		writeError(w, http.StatusBadRequest, CodeBadRequest, "invalid request", fields...)
		return nil
	}
	if k >= len(s.monitors) {
		writeError(w, http.StatusNotFound, CodeNotFound,
			fmt.Sprintf("api: no shard %d (have %d)", k, len(s.monitors)))
		return nil
	}
	return s.monitors[k]
}

// FaultsResponse is the GET /v1/faults (and POST /v1/faults) reply.
type FaultsResponse struct {
	Faults []faultd.Fault `json:"faults"`
}

func (s *Server) handleFaultsGet(w http.ResponseWriter, r *http.Request) {
	fm := s.monitorFor(w, r)
	if fm == nil {
		return
	}
	writeData(w, http.StatusOK, FaultsResponse{Faults: fm.Injector().List()})
}

// InjectFaultsRequest is the POST /v1/faults payload: structured faults,
// the flag-style spec string, or both.
type InjectFaultsRequest struct {
	Faults []faultd.Fault `json:"faults"`
	Spec   string         `json:"spec"`
}

func (r *InjectFaultsRequest) validate() (fields []FieldError) {
	if len(r.Faults) == 0 && r.Spec == "" {
		fields = append(fields, FieldError{Field: "faults", Reason: "required: faults or spec"})
	}
	return fields
}

func (s *Server) handleFaultsPost(w http.ResponseWriter, r *http.Request) {
	fm := s.monitorFor(w, r)
	if fm == nil {
		return
	}
	var req InjectFaultsRequest
	if !decode(w, r, &req) {
		return
	}
	faults := req.Faults
	if req.Spec != "" {
		parsed, err := faultd.ParseSpec(req.Spec)
		if err != nil {
			httpError(w, http.StatusUnprocessableEntity, err)
			return
		}
		faults = append(faults, parsed...)
	}
	for _, f := range faults {
		if err := f.Validate(fm.N(), fm.Depth()); err != nil {
			httpError(w, http.StatusUnprocessableEntity, err)
			return
		}
	}
	inj := fm.Injector()
	for _, f := range faults {
		inj.Add(f)
	}
	writeData(w, http.StatusOK, FaultsResponse{Faults: inj.List()})
}

func (s *Server) handleFaultsDelete(w http.ResponseWriter, r *http.Request) {
	fm := s.monitorFor(w, r)
	if fm == nil {
		return
	}
	inj := fm.Injector()
	k := len(inj.List())
	inj.Clear()
	writeData(w, http.StatusOK, map[string]int{"cleared": k})
}

func (s *Server) handleFaultsReport(w http.ResponseWriter, r *http.Request) {
	fm := s.monitorFor(w, r)
	if fm == nil {
		return
	}
	writeData(w, http.StatusOK, fm.Report())
}

func (s *Server) handleProbe(w http.ResponseWriter, r *http.Request) {
	fm := s.monitorFor(w, r)
	if fm == nil {
		return
	}
	rep, err := fm.RunProbes()
	if err != nil {
		httpError(w, http.StatusInternalServerError, err)
		return
	}
	writeData(w, http.StatusOK, rep)
}
