package api

// Durability admin surface:
//
//	POST /v1/admin/snapshot  -> {"snapshots":[{"shard","lsn","groups","plans","bytes","durationNs"},…]}
//
// Forces an immediate snapshot — and the log truncation that follows it
// — on every durable shard, so an operator can bound recovery time
// before a planned restart. Answers 503 when the set runs without a
// durable store (brsmnd's -data-dir unset): SnapshotAll then reports
// groupd.ErrNoStore.

import (
	"errors"
	"net/http"

	"brsmn/internal/groupd"
	"brsmn/internal/store"
)

// SnapshotResponse is the POST /v1/admin/snapshot reply.
type SnapshotResponse struct {
	Snapshots []store.SnapshotInfo `json:"snapshots"`
}

func (s *Server) handleAdminSnapshot(w http.ResponseWriter, r *http.Request) {
	infos, err := s.set.SnapshotAll()
	if err != nil {
		if errors.Is(err, groupd.ErrNoStore) {
			writeError(w, http.StatusServiceUnavailable, CodeUnavailable, "api: durable store not enabled")
			return
		}
		groupErr(w, err)
		return
	}
	writeData(w, http.StatusOK, SnapshotResponse{Snapshots: infos})
}
