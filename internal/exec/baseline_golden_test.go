package exec

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"testing"

	"sparsefusion/internal/core"
	"sparsefusion/internal/dag"
	"sparsefusion/internal/dagp"
	"sparsefusion/internal/kernels"
	"sparsefusion/internal/lbc"
	"sparsefusion/internal/partition"
	"sparsefusion/internal/sparse"
	"sparsefusion/internal/wavefront"
)

// programHash is the SHA-256 of every array and scalar of a compiled program.
func programHash(p *core.Program) string {
	h := sha256.New()
	for _, v := range []any{p.Iters, p.WOff, p.SOff, p.SegOff, p.SegLoop, p.WSeg, p.SegIter,
		int64(p.NumLoops), int64(p.MaxWidth), p.Interleaved, p.ReuseRatio} {
		if err := binary.Write(h, binary.LittleEndian, v); err != nil {
			panic(err)
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestBaselineProgramsGolden pins the compiled programs of the baseline
// partitionings on the exec test fixtures: one TRSV scheduled alone by
// wavefront, LBC and DAGP; each kernel of a TRSV-MV chain as the unfused
// ParSy (LBC at the paper's tuning) and MKL (wavefront) baselines schedule
// it; and that chain's joint DAG by wavefront, chordal LBC and DAGP.
func TestBaselineProgramsGolden(t *testing.T) {
	got := map[string]string{}
	must := func(p *partition.Partitioning, err error) *partition.Partitioning {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	pin := func(name string, r *Runner, err error) {
		t.Helper()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		got[name] = programHash(r.Program())
	}

	a := sparse.Must(sparse.RandomSPD(400, 5, 9))
	k := kernels.NewSpTRSVCSR(a.Lower(), sparse.RandomVec(400, 10), make([]float64, 400))
	for name, p := range map[string]*partition.Partitioning{
		"wavefront": must(wavefront.Schedule(k.DAG(), threads)),
		"lbc":       must(lbc.Schedule(k.DAG(), threads, lbc.Params{InitialCut: 3, Agg: 10})),
		"dagp":      must(dagp.Schedule(k.DAG(), threads, dagp.Params{})),
	} {
		r, err := CompilePartitioned([]kernels.Kernel{k}, p)
		pin("single/"+name, r, err)
	}

	loops, ks, _ := fusedTrsvMv(350, 11)
	for _, k := range ks {
		r, err := CompilePartitioned([]kernels.Kernel{k}, must(lbc.Schedule(k.DAG(), threads, lbc.Params{})))
		pin("unfused-parsy/"+k.Name(), r, err)
		r, err = CompilePartitioned([]kernels.Kernel{k}, must(wavefront.Schedule(k.DAG(), threads)))
		pin("unfused-mkl/"+k.Name(), r, err)
	}

	joint, err := dag.JointChain([]*dag.Graph{loops.G[0], loops.G[1]}, []*sparse.CSR{loops.F[0]})
	if err != nil {
		t.Fatal(err)
	}
	for name, p := range map[string]*partition.Partitioning{
		"wavefront": must(wavefront.Schedule(joint, threads)),
		"lbc":       must(lbc.ScheduleChordal(joint, threads, lbc.Params{InitialCut: 3, Agg: 10})),
		"dagp":      must(dagp.Schedule(joint, threads, dagp.Params{})),
	} {
		r, err := CompilePartitioned(ks, p)
		pin("joint/"+name, r, err)
	}

	for key, sum := range got {
		if want, ok := goldenBaselinePrograms[key]; !ok || sum != want {
			t.Errorf("%s: program %s, golden %q", key, sum, want)
		}
	}
	for key := range goldenBaselinePrograms {
		if _, ok := got[key]; !ok {
			t.Errorf("%s: golden program no longer built", key)
		}
	}
}

// goldenBaselinePrograms are programHash of every fixture of
// TestBaselineProgramsGolden.
var goldenBaselinePrograms = map[string]string{
	"single/wavefront":         "bd452ebe0fc2d03565c088baec1be5dbac40ac034ea766be8fe5407834d31d73",
	"single/lbc":               "6f262d5678a32f7dc1a58fd98fcdc7717fa8cd3e1a3ce1fc72b752bc951d11fc",
	"single/dagp":              "8c0b7d874ff17dc8359abf22492c96f0d51770dc0dabb4fe2cc336fdf1098bb2",
	"unfused-parsy/SpTRSV-CSR": "a7de2f9aab5a59aa820bcacccb0a52b285b813a45bd67af71db86d8c69c45b6c",
	"unfused-mkl/SpTRSV-CSR":   "fc59c9ebab5c7df663a85c38d31cd805ed182d40027cab29740bb9b0a25951a8",
	"unfused-parsy/SpMV-CSC":   "8ebc1ab6d593151ea4c983a0817f0a5865ddf03792280e278c1735545fe554ec",
	"unfused-mkl/SpMV-CSC":     "8ebc1ab6d593151ea4c983a0817f0a5865ddf03792280e278c1735545fe554ec",
	"joint/wavefront":          "a8b888b3221d4bc50272fa19175181a3b68b7aedfcdb817044afc9a83c63fd00",
	"joint/lbc":                "c57530d7f01790ff622253b10175bbe10ab16faa41f9c6abc23b1596718bd3aa",
	"joint/dagp":               "f37b567debba5d9542d9f862fbcc63fa8dea17928756d42f626bf0548245ef23",
}
