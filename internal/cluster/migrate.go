package cluster

// The migration engine. One mechanism serves both transitions:
//
//	drain  = leave the ring, then sweep
//	join   = appear in peers' serving view, their sweeps push groups over
//
// sweep walks every group this node holds, and for each whose ring
// owner is another node: POST it (state + warm plan) to that owner in a
// batch, then gen-guard-delete the local copy. The guard closes the
// export-vs-mutation race — if a join/leave landed between export and
// delete, DeleteIfGen fails with ErrGenMismatch and the group is
// re-exported and re-sent, so the write is never silently dropped. The
// install-before-delete order means a group always exists somewhere:
// worst case (crash between the two) both nodes hold it and the higher
// generation wins on the next sweep.

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"

	"brsmn/internal/groupd"
)

const (
	// maxMigrateRetries bounds per-group re-export attempts when writes
	// keep landing mid-migration.
	maxMigrateRetries = 8
	// migrateBatch caps groups per /v1/cluster/migrate request.
	migrateBatch = 64
)

// Drain starts draining this node: it leaves the placement ring and a
// background sweep pushes every group it holds to the new ring owners.
// Idempotent; the HTTP drain endpoint is a thin wrapper. Exposed for
// in-process cluster tests.
func (n *Node) Drain() {
	if n.draining.Swap(true) {
		return
	}
	// The self peer leaves the serving view immediately — the ring
	// rebuild below must not wait for the next poll round to notice.
	n.self.setState(peerDraining)
	n.rebuildRing()
	if n.met != nil {
		n.met.drains.Inc()
	}
	n.goSweep("drain")
}

// SweepWait runs one rebalance sweep synchronously — the test hook for
// deterministic drain/join assertions (the HTTP path sweeps in the
// background).
func (n *Node) SweepWait() error { return n.sweep("manual") }

// sweep re-homes every locally held group whose ring owner is another
// node. Single-flight: a sweep triggered while one is running waits its
// turn (the second pass sees whatever the first left, so nothing is
// missed). Returns the first hard error; best-effort otherwise — groups
// that fail to move stay local and the next sweep retries them.
func (n *Node) sweep(reason string) error {
	n.sweepMu.Lock()
	defer n.sweepMu.Unlock()
	if n.closed.Load() {
		return ErrClosed
	}
	groups, plans := n.cfg.Local.Export()
	ring := n.ring.Load()

	// Partition by gaining node so each target gets few, large batches.
	byTarget := map[*peer][]MigrateItem{}
	for i, g := range groups {
		owner, _ := ring.Owner(g.ID)
		if owner == nil || owner == n.self {
			continue
		}
		byTarget[owner] = append(byTarget[owner], MigrateItem{Group: g, Plan: plans[i]})
	}
	if len(byTarget) == 0 {
		return nil
	}
	var moved int
	var firstErr error
	for target, items := range byTarget {
		for start := 0; start < len(items); start += migrateBatch {
			end := min(start+migrateBatch, len(items))
			m, err := n.migrateBatch(target, items[start:end])
			moved += m
			if err != nil && firstErr == nil {
				firstErr = err
			}
		}
	}
	n.logf("cluster: sweep (%s) moved %d groups across %d nodes", reason, moved, len(byTarget))
	n.nMigratedOut.Add(uint64(moved))
	return firstErr
}

// migrateBatch pushes one batch to its gaining node and, on success,
// gen-guard-deletes each group locally, re-exporting and re-sending any
// group whose generation moved underneath the batch. Returns how many
// groups finished the full move.
func (n *Node) migrateBatch(target *peer, items []MigrateItem) (int, error) {
	if !target.reachable() {
		return 0, fmt.Errorf("cluster: gaining node %s is %s", target.id, target.getState())
	}
	if err := n.postMigrate(target, items); err != nil {
		return 0, err
	}
	moved := 0
	for _, it := range items {
		if err := n.finishMove(target, it); err != nil {
			if errors.Is(err, groupd.ErrNotFound) {
				moved++ // deleted concurrently; nothing left to move
				continue
			}
			return moved, err
		}
		moved++
	}
	return moved, nil
}

// finishMove deletes the local copy of one migrated group, chasing
// generation bumps that landed after its export.
func (n *Node) finishMove(target *peer, it MigrateItem) error {
	gen := it.Group.Gen
	for attempt := 0; ; attempt++ {
		err := n.cfg.Local.DeleteIfGen(it.Group.ID, gen)
		if err == nil {
			return nil
		}
		if !errors.Is(err, groupd.ErrGenMismatch) || attempt >= maxMigrateRetries {
			return err
		}
		// A write landed between export and delete: re-export the fresher
		// state, push it over, and try the delete again at the new
		// generation. Install is higher-gen-wins, so re-sending is safe.
		g, plan, err := n.cfg.Local.ExportGroup(it.Group.ID)
		if err != nil {
			if errors.Is(err, groupd.ErrNotFound) {
				return err
			}
			return fmt.Errorf("re-exporting %s: %w", it.Group.ID, err)
		}
		if err := n.postMigrate(target, []MigrateItem{{Group: g, Plan: plan}}); err != nil {
			return err
		}
		gen = g.Gen
	}
}

// postMigrate sends one install batch to the gaining node.
func (n *Node) postMigrate(target *peer, items []MigrateItem) error {
	body, err := json.Marshal(MigrateRequest{From: n.cfg.Self, Items: items})
	if err != nil {
		return err
	}
	req, err := http.NewRequest(http.MethodPost, target.url+"/v1/cluster/migrate", bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := n.client.Do(req)
	if err != nil {
		return fmt.Errorf("cluster: migrate to %s: %w", target.id, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		var env struct {
			Error *struct {
				Message string `json:"message"`
			} `json:"error"`
		}
		msg := resp.Status
		if json.NewDecoder(resp.Body).Decode(&env) == nil && env.Error != nil {
			msg = env.Error.Message
		}
		return fmt.Errorf("cluster: migrate to %s: %s", target.id, msg)
	}
	return nil
}

// fetchNodeStatus asks one peer for its self-reported membership row —
// the body of the poll loop.
func (n *Node) fetchNodeStatus(p *peer) (NodeStatus, error) {
	req, err := http.NewRequest(http.MethodGet, p.url+"/v1/cluster/node", nil)
	if err != nil {
		return NodeStatus{}, err
	}
	resp, err := n.client.Do(req)
	if err != nil {
		return NodeStatus{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return NodeStatus{}, fmt.Errorf("cluster: node poll: %s", resp.Status)
	}
	var env struct {
		Data NodeStatus `json:"data"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
		return NodeStatus{}, err
	}
	if env.Data.ID != p.id {
		return NodeStatus{}, fmt.Errorf("cluster: node %s answered as %q (peer map misconfigured?)", p.id, env.Data.ID)
	}
	return env.Data, nil
}
