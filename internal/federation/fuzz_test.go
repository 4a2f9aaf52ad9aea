package federation

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/serve"
	"repro/internal/solver"
)

// FuzzMigrantBatch: any body POSTed to the migrant inbox is answered 202
// or 400 and never panics — through JSON decode, checkBatch and deliver,
// into a live shard's inbox, the pending buffer, and the checkpoint table
// of a failover-enabled owner. Seeds are a valid migrant batch, a batch
// carrying a real island checkpoint, a Done notice, and the bodies the
// endpoint tests push.
func FuzzMigrantBatch(f *testing.F) {
	const owned = "f0-x-1"
	svc := solver.NewService(1)
	f.Cleanup(svc.Close)
	n, err := New(Config{
		Self:            "http://a",
		Peers:           []string{"http://a", "http://b"},
		Service:         svc,
		FailoverEnabled: true,
	})
	if err != nil {
		f.Fatal(err)
	}
	// This node owns the key and hosts its rank-0 shard, so rank-1
	// batches reach both a live inbox and the checkpoint table.
	n.registerOwned(owned)
	n.ShardStarted(owned, 0, 2, 0)
	h := n.Handler()

	spec := solver.Spec{
		Problem: solver.ProblemSpec{Instance: "ft06"},
		Model:   "island",
		Params:  solver.Params{Islands: 2, Pop: 8, Interval: 2},
		Budget:  solver.Budget{Generations: 4},
		Seed:    1,
	}
	var cp *solver.Checkpoint
	if _, err := solver.SolveWithCheckpoints(context.Background(), spec, solver.CheckpointOptions{
		Every: 2, Save: func(c *solver.Checkpoint) { cp = c },
	}); err != nil || cp == nil {
		f.Fatalf("seed checkpoint: %v", err)
	}
	migrants := []solver.Migrant{{Genome: solver.Genome{Seq: []int{0, 1, 2}}, Obj: 60}}
	for _, b := range []serve.MigrantBatch{
		{Key: owned, Epoch: 0, From: 1, Migrants: migrants},
		{Key: owned, Epoch: 1, From: 1, Migrants: migrants, Checkpoint: cp},
		{Key: owned, Epoch: 2, From: 1, Checkpoint: cp},
		{Key: owned, Epoch: 3, From: 1, Done: true},
		{Key: "k", Epoch: 0, From: 9},
		{Key: "early", Epoch: 0, From: 1, Migrants: []solver.Migrant{{Genome: solver.Genome{Seq: []int{0}}, Obj: 1}}},
	} {
		data, err := json.Marshal(b)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Add([]byte(`{"key":"` + owned + `","epoch":-1,"from":1}`))
	f.Add([]byte(`{"key":"` + owned + `","epoch":0,"from":0}`))
	f.Add([]byte(`not json`))

	f.Fuzz(func(t *testing.T, body []byte) {
		req := httptest.NewRequest(http.MethodPost, "/v1/federation/migrants", bytes.NewReader(body))
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		switch rec.Code {
		case http.StatusAccepted, http.StatusBadRequest:
		default:
			t.Fatalf("status %d for %q: %s", rec.Code, body, rec.Body)
		}
		if rec.Code != http.StatusAccepted {
			return
		}
		// An accepted checkpoint for the owned key is what failover
		// would resume from.
		var b serve.MigrantBatch
		if json.Unmarshal(body, &b) == nil && b.Key == owned && b.Checkpoint != nil && n.checkpointFor(owned, b.From) == nil {
			t.Fatalf("accepted checkpoint of rank %d not tracked", b.From)
		}
	})
}
