package api

// Shard introspection and rebalance endpoints over the server's
// shard.Set:
//
//	GET  /v1/shards                    -> the Set's aggregated + per-shard stats
//	POST /v1/shards/{id}/quarantine    -> pull a shard off the ring, migrate its groups
//	POST /v1/shards/{id}/reinstate     -> return it and migrate its groups back
//
// Quarantining the last live shard is refused with 409.

import (
	"errors"
	"net/http"
	"strconv"

	"brsmn/internal/shard"
)

func (s *Server) handleShards(w http.ResponseWriter, r *http.Request) {
	writeData(w, http.StatusOK, s.set.Stats())
}

// shardID parses the {id} path value, writing the 400 envelope on junk.
func shardID(w http.ResponseWriter, r *http.Request) (int, bool) {
	id, err := strconv.Atoi(r.PathValue("id"))
	if err != nil || id < 0 {
		writeError(w, http.StatusBadRequest, CodeBadRequest, "invalid request",
			FieldError{Field: "id", Reason: "must be a non-negative shard index"})
		return 0, false
	}
	return id, true
}

// shardErr maps Set placement errors: unknown shard 404, closed 503,
// everything else (already quarantined, not quarantined, last live
// shard) is a state conflict.
func shardErr(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, shard.ErrNoSuchShard):
		httpError(w, http.StatusNotFound, err)
	case errors.Is(err, shard.ErrClosed):
		httpError(w, http.StatusServiceUnavailable, err)
	default:
		httpError(w, http.StatusConflict, err)
	}
}

func (s *Server) handleShardQuarantine(w http.ResponseWriter, r *http.Request) {
	id, ok := shardID(w, r)
	if !ok {
		return
	}
	if err := s.set.Quarantine(id); err != nil {
		shardErr(w, err)
		return
	}
	writeData(w, http.StatusOK, s.set.Stats())
}

func (s *Server) handleShardReinstate(w http.ResponseWriter, r *http.Request) {
	id, ok := shardID(w, r)
	if !ok {
		return
	}
	if err := s.set.Reinstate(id); err != nil {
		shardErr(w, err)
		return
	}
	writeData(w, http.StatusOK, s.set.Stats())
}
