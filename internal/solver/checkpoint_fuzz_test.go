package solver

import (
	"context"
	"encoding/json"
	"testing"
)

// FuzzCheckpointUnpack: any JSON that decodes into a Checkpoint either
// fails ValidateCheckpoint — the gate the Service uses to downgrade a
// damaged checkpoint to a cold start — or resumes without panicking and
// finishes with a Table I-valid schedule. The seeds are real flat (serial)
// and per-deme (island) checkpoints plus their pre-shard-pipeline forms,
// so the fuzzer starts from the Shards and Demes layouts it should mangle.
func FuzzCheckpointUnpack(f *testing.F) {
	specs := []Spec{
		ckSpec("serial", EncSeq, ProblemSpec{Instance: "ft06"}),
		ckSpec("island", EncSeq, ProblemSpec{Instance: "ft06"}),
	}
	specs[1].Params.Islands = 2
	for i, spec := range specs {
		var cps []*Checkpoint
		if _, err := SolveWithCheckpoints(context.Background(), spec, CheckpointOptions{
			Every: 10, Save: func(cp *Checkpoint) { cps = append(cps, cp) },
		}); err != nil || len(cps) == 0 {
			f.Fatalf("seed checkpoint for %s: %v", spec.Model, err)
		}
		cp := cps[0]
		data, _ := json.Marshal(cp)
		f.Add(uint8(i), data)
		cp.Shards = nil
		for d := range cp.Demes {
			cp.Demes[d].Shards = nil
		}
		data, _ = json.Marshal(cp)
		f.Add(uint8(i), data)
	}
	f.Fuzz(func(t *testing.T, which uint8, data []byte) {
		spec := specs[int(which)%len(specs)]
		var cp Checkpoint
		if json.Unmarshal(data, &cp) != nil {
			return
		}
		if ValidateCheckpoint(spec, &cp) != nil {
			return
		}
		res, err := SolveWithCheckpoints(context.Background(), spec, CheckpointOptions{Resume: &cp})
		if err != nil {
			return // a shape only the built model can refuse: an error, not a crash
		}
		if err := res.Schedule.Validate(); err != nil {
			t.Fatalf("resumed %s run returned an infeasible schedule: %v", spec.Model, err)
		}
	})
}
