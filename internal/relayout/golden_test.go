package relayout_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"testing"

	"sparsefusion/internal/combos"
	"sparsefusion/internal/core"
	"sparsefusion/internal/exec"
	"sparsefusion/internal/kernels"
	"sparsefusion/internal/lbc"
	"sparsefusion/internal/relayout"
	"sparsefusion/internal/sparse"
	"sparsefusion/internal/suite"
)

// layoutHash is the SHA-256 of everything a layout holds: per stream Idx, the
// bits of Val, Len and Pos; SegEnt; and per loop the scatter record (fold
// table, fold offsets and the three counts). Every array is length-prefixed.
func layoutHash(lay *relayout.Layout) string {
	h := sha256.New()
	put := func(v any) {
		if err := binary.Write(h, binary.LittleEndian, v); err != nil {
			panic(err)
		}
	}
	arr := func(v any, n int) {
		put(int64(n))
		put(v)
	}
	for _, s := range lay.Streams {
		arr(s.Idx, len(s.Idx))
		arr(s.Val, len(s.Val))
		arr(s.Len, len(s.Len))
		arr(s.Pos, len(s.Pos))
	}
	arr(lay.SegEnt, len(lay.SegEnt))
	for _, sc := range lay.Scatter {
		if sc == nil {
			put(int64(-1))
			continue
		}
		arr(sc.FoldTarget, len(sc.FoldTarget))
		arr(sc.FoldOff, len(sc.FoldOff))
		put([]int64{int64(sc.Entries), int64(sc.Redirected), int64(sc.Slots)})
	}
	return hex.EncodeToString(h.Sum(nil))
}

// inspect runs ICO over a chain at the given width and compiles the schedule.
// The schedule the program rebuilds must be the inspected one byte for byte,
// so every golden schedule hash is also the hash of its program's schedule: an
// operation that keeps only the program saves and walks what was inspected.
func inspect(t *testing.T, loops *core.Loops, reuse float64, nLoops, threads int) (*core.Schedule, *core.Program) {
	t.Helper()
	sched, err := core.ICO(loops, core.Params{Threads: threads, ReuseRatio: reuse, LBC: lbc.DefaultParams()})
	if err != nil {
		t.Fatal(err)
	}
	prog, err := core.CompileSchedule(sched, nLoops)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(prog.Decompile().Bytes(), sched.Bytes()) {
		t.Fatal("the schedule rebuilt from the program differs from the inspected one")
	}
	return sched, prog
}

// fusedProgram is inspect's compiled program.
func fusedProgram(t *testing.T, loops *core.Loops, reuse float64, nLoops, threads int) *core.Program {
	t.Helper()
	_, prog := inspect(t, loops, reuse, nLoops, threads)
	return prog
}

// cgChain is the CG solver chain the facade's fused solver composes
// (combos.CGChain: 6 loops, or 8 preconditioned) over blocks of block
// elements, as one fused group.
func cgChain(t *testing.T, a *sparse.CSR, precond bool, block int) *combos.Instance {
	t.Helper()
	v := combos.NewCGVectors(a.Rows, block, precond)
	copy(v.R, sparse.RandomVec(a.Rows, 9))
	copy(v.P, sparse.RandomVec(a.Rows, 10))
	spec, err := combos.CGChain(a, v, precond, block)
	if err != nil {
		t.Fatal(err)
	}
	chain, err := combos.BuildChain(spec)
	if err != nil {
		t.Fatal(err)
	}
	if !chain.Fused() {
		t.Fatalf("%s: chain did not compose into one group", spec.Name)
	}
	return chain.Groups[0]
}

// goldenLayouts are layoutHash of every fixture of TestLayoutGolden.
var goldenLayouts = map[string]string{
	"lap2d:40/DSCAL-CSR/threads=4":   "ac154dfabf79297eb9a6839b7f230813b9df916d6efde0272b4d67e7128335a2",
	"lap2d:40/GS-3sweeps/threads=4":  "c1303dc44ab0cf2827a2ee635cb9909738c170a3e67d3a6a410f15dd2f806474",
	"lap2d:40/MV-MV/threads=2":       "e64a0389f13098de9299513287f1b0c6491501324132415fd2dfcee19c86b5ed",
	"lap2d:40/MV-MV/threads=4":       "56977b70935e036a3d012bbdd68ac1e547e4ce1b9b6baf4440a9ed9b55c967eb",
	"lap2d:40/TRSV-MV/threads=2":     "349f0e8bbb16af90955e6944d3eb68f060a9c7042ebcd1fc0c026d57f4149457",
	"lap2d:40/TRSV-MV/threads=4":     "9e561d8d596e5ce27c93f3557aed6be6f419f7d51535220e516e27a083a367d3",
	"lap2d:40/TRSV-TRSV/threads=2":   "dc1bb9d4e81040ccc47c43e660cac8937ad4c78f19378e7827521dd859c32968",
	"lap2d:40/TRSV-TRSV/threads=4":   "18dedbd7823c3b2a5da09c9e39d18c40f9f0f119846c8ec0e03419a7db94afea",
	"lap2d:40/pcg/threads=4":         "dfd15fe8e52d3d571c70781716e0abf829d8210412d5769047072e9c35265d14",
	"pow:4000:6/MV-MV/threads=2":     "faaf1d15a8026e31a6caac805d70b40cfa537c5132e6f30f79bbf29a87ec05eb",
	"pow:4000:6/MV-MV/threads=4":     "f12fee22832d22ea0afd55b459ed4e04e32c6e4189a93fc4033dcd0347419d08",
	"pow:4000:6/TRSV-MV/threads=2":   "5c48de493d93c6f9b0a92d04acf143d6491cde103f433aa9cdbb1e772fc0c4e1",
	"pow:4000:6/TRSV-MV/threads=4":   "a64dd27f485249bc896fcbf615e11469a6eece68a904e859052df50d74dda733",
	"pow:4000:6/TRSV-TRSV/threads=2": "adf36dae4d7ea87dc3d3456ba146bc642d72f320914afeed41dfe1581301646d",
	"pow:4000:6/TRSV-TRSV/threads=4": "de8e2529fd2af8958a5487325b20233836e0677e3cc96748f5ab3754aac72a58",
}

// TestLayoutGolden pins the bytes relayout.Build produces: the pure
// combinations on two nested-dissection-ordered patterns at two widths, a
// three-sweep Gauss-Seidel chain, the preconditioned CG chain and a DSCAL
// loop (the one kernel with a Pos stream).
func TestLayoutGolden(t *testing.T) {
	got := map[string]string{}
	build := func(name string, prog *core.Program, ks []kernels.Kernel) {
		lay, err := relayout.Build(prog, ks)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		got[name] = layoutHash(lay)
	}
	for _, spec := range []string{"lap2d:40", "pow:4000:6"} {
		a, err := suite.Parse(spec, true)
		if err != nil {
			t.Fatal(err)
		}
		for _, id := range []combos.ID{combos.TrsvTrsv, combos.TrsvMv, combos.MvMv} {
			in, err := combos.Build(id, a)
			if err != nil {
				t.Fatal(err)
			}
			for _, th := range []int{2, 4} {
				name := fmt.Sprintf("%s/%s/threads=%d", spec, in.Name, th)
				build(name, fusedProgram(t, in.Loops, in.Reuse, len(in.Kernels), th), in.Kernels)
			}
		}
	}

	a, err := suite.Parse("lap2d:40", true)
	if err != nil {
		t.Fatal(err)
	}
	gs, err := combos.BuildGS(a, 3)
	if err != nil {
		t.Fatal(err)
	}
	build("lap2d:40/GS-3sweeps/threads=4", fusedProgram(t, gs.Loops, gs.Reuse, len(gs.Kernels), 4), gs.Kernels)

	pcg := cgChain(t, a, true, 64)
	build("lap2d:40/pcg/threads=4", fusedProgram(t, pcg.Loops, pcg.Reuse, len(pcg.Kernels), 4), pcg.Kernels)

	prog, ks := dscalFixture(t, a)
	build("lap2d:40/DSCAL-CSR/threads=4", prog, ks)

	for key, sum := range got {
		if want, ok := goldenLayouts[key]; !ok || sum != want {
			t.Errorf("%s: layout %s, golden %q", key, sum, want)
		}
	}
	for key := range goldenLayouts {
		if _, ok := got[key]; !ok {
			t.Errorf("%s: golden layout no longer built", key)
		}
	}
}

// goldenSchedules are the SHA-256 of Schedule.Bytes of every fixture of
// TestScheduleGolden.
var goldenSchedules = map[string]string{
	"lap2d:40/DAD-IC0/threads=2":     "77de35ca85ebac9c97f6ef13d32d1ef79573086797881275310979601de02940",
	"lap2d:40/DAD-IC0/threads=4":     "91a3bc96f14e28c0c3ac828122c336eef7d73ba18866efb1d289ec49eed87fda",
	"lap2d:40/DAD-ILU0/threads=2":    "3a6ec4a52da5c666f5f934eed1672db6353e00cee5ed908a48843f296633fd3d",
	"lap2d:40/DAD-ILU0/threads=4":    "23d61e8c5be8eadee29e22e5f37bee3e10f16a18e00478c3f9dff580ccd6b0bb",
	"lap2d:40/GS-1sweeps/threads=4":  "d7598baf452421b57dbbf7f25305f586d4b29d3ce099251c73ad249fbdd9723a",
	"lap2d:40/GS-3sweeps/threads=4":  "9859bfbd6518d52819af293cc144dad79d7026d1ae23399bb40315b6d94cb950",
	"lap2d:40/IC0-TRSV/threads=2":    "dfed430ee1b45ec504a1934267ed4507d6b564c087cd456964c15eeac1651104",
	"lap2d:40/IC0-TRSV/threads=4":    "e9a09512dbc72e5ca91d9cc285ef8018a19328beb6ea709ca563f07659d0dfb1",
	"lap2d:40/ILU0-TRSV/threads=2":   "8a5294514e61d07af5f271751ddff2e508a95485c24771a1fb897258a7ef8b4d",
	"lap2d:40/ILU0-TRSV/threads=4":   "a96d6ac392bd027626963ec90f2c4e07d13a1a44d5035c058c41ae0833f58ddc",
	"lap2d:40/MV-MV/threads=2":       "f7bf5831577f2c7ee314b31e1e94ee92ab36479b6c09190952bf5f036045a790",
	"lap2d:40/MV-MV/threads=4":       "af2155b16ade7758ff877afb9bd1dfb0bf15f64e22494a1a3c78d5d5cb8e058f",
	"lap2d:40/TRSV-MV/threads=2":     "faa6636696916cd9688f7fc0416b32f204d503d4749178d3c1c3b3e0555b79d3",
	"lap2d:40/TRSV-MV/threads=4":     "494f865ee71e00c4b7235271fb663a2dfa260932d977bafed42b23e0cb284edb",
	"lap2d:40/TRSV-TRSV/threads=2":   "67b2f46b3454b0ceaae829ebd462f4396e6720c4ff8af5ee7e790be5c5a74c67",
	"lap2d:40/TRSV-TRSV/threads=4":   "22a1456722103b56f5ad408dc841064afe6b676769dfb06c7c5ac9f8c79544ad",
	"lap2d:40/cg/threads=4":          "3a91213377dd6a2d59ab4619c08d7d6c4c69a2e9b0c5a183e7f572a0e54113c8",
	"lap2d:40/pcg/threads=4":         "f5ffd98275ce4654d05984e58e71d10dce98a818454bbb32b29c6d82ffe8dbd3",
	"pow:4000:6/DAD-IC0/threads=2":   "44b743bd2597bb01cabe95d8731e2cb0d1a1aad31c21af2b05472c3eae3d84a7",
	"pow:4000:6/DAD-IC0/threads=4":   "0665b0e9502a988fbc9044529915edb491f1c8934d3df4006a8c211d99e3b175",
	"pow:4000:6/DAD-ILU0/threads=2":  "81691e20dec741c00bfc401d89a498ac3899f391ca358f7c698c5ace5ae838e8",
	"pow:4000:6/DAD-ILU0/threads=4":  "cc1ca93b03cf78c0565e3dfb4dc58d9c54c69fabf372040348a41c6296a10227",
	"pow:4000:6/IC0-TRSV/threads=2":  "68ab3950ea9edb4da0b19b5148a406cf6945c69f7174690ab4d80ce773bf658d",
	"pow:4000:6/IC0-TRSV/threads=4":  "5342185044546a6e08afb0b1553b752bf577b6c973458ed4fcabacfc0c1c54fd",
	"pow:4000:6/ILU0-TRSV/threads=2": "ee20bb8895c040684b619d3c70e0c3c55f1c4460feb756443e525dcab2e9c70d",
	"pow:4000:6/ILU0-TRSV/threads=4": "9eb299fd5ade7ebc1eef4df33a80f4860446ed66f893bad80cd5374805b783cc",
	"pow:4000:6/MV-MV/threads=2":     "b4eefe3dec5f4d5bb14aa85c5251c115f4f3374307f276bebab9c7d45cf89c4b",
	"pow:4000:6/MV-MV/threads=4":     "3fcb44d15c73d8e381a32b08ccedaccc69329052e34ab2956491bd8d57e4822f",
	"pow:4000:6/TRSV-MV/threads=2":   "6454354f4a2fcfffab6bf854a3e55edf5c67c7081e815aad54cb898dcd4f998c",
	"pow:4000:6/TRSV-MV/threads=4":   "8c980d8fcf1df3051b815ddc2328f785f2c098ed94f629361f02d15e99b93826",
	"pow:4000:6/TRSV-TRSV/threads=2": "c0aada04539cced032f0a210d193f4647d7fb5ab827cde9680de3bcce5eacbf6",
	"pow:4000:6/TRSV-TRSV/threads=4": "b5adae95eae937643fe8d5afd101a40dce80ad4f5f11690a98a462444965c8bf",
}

// scheduleFixtures calls fn with every fixture TestScheduleGolden pins: all
// seven combinations on two nested-dissection-ordered patterns at two widths,
// the one- and three-sweep Gauss-Seidel chains, and the CG and preconditioned
// CG solver chains.
func scheduleFixtures(t *testing.T, fn func(name string, in *combos.Instance, threads int)) {
	t.Helper()
	for _, spec := range []string{"lap2d:40", "pow:4000:6"} {
		a, err := suite.Parse(spec, true)
		if err != nil {
			t.Fatal(err)
		}
		for id := range combos.Names {
			in, err := combos.Build(id, a)
			if err != nil {
				t.Fatal(err)
			}
			for _, th := range []int{2, 4} {
				fn(fmt.Sprintf("%s/%s/threads=%d", spec, in.Name, th), in, th)
			}
		}
	}

	a, err := suite.Parse("lap2d:40", true)
	if err != nil {
		t.Fatal(err)
	}
	for _, sweeps := range []int{1, 3} {
		gs, err := combos.BuildGS(a, sweeps)
		if err != nil {
			t.Fatal(err)
		}
		fn("lap2d:40/"+gs.Name+"/threads=4", gs, 4)
	}
	for name, precond := range map[string]bool{"cg": false, "pcg": true} {
		fn("lap2d:40/"+name+"/threads=4", cgChain(t, a, precond, 64), 4)
	}
}

// TestScheduleGolden pins the schedules ICO produces for the shipped chains
// (scheduleFixtures). A change to the inspector's output re-pins them on
// purpose.
func TestScheduleGolden(t *testing.T) {
	got := map[string]string{}
	scheduleFixtures(t, func(name string, in *combos.Instance, threads int) {
		sched, _ := inspect(t, in.Loops, in.Reuse, len(in.Kernels), threads)
		sum := sha256.Sum256(sched.Bytes())
		got[name] = hex.EncodeToString(sum[:])
	})

	for key, sum := range got {
		if want, ok := goldenSchedules[key]; !ok || sum != want {
			t.Errorf("%s: schedule %s, golden %q", key, sum, want)
		}
	}
	for key := range goldenSchedules {
		if _, ok := got[key]; !ok {
			t.Errorf("%s: golden schedule no longer built", key)
		}
	}
}

// unitsHash is the SHA-256 of a runner's dispatch units in execution order:
// per unit its first and end program segment and whether a fused pair body
// runs it.
func unitsHash(r *exec.Runner) string {
	h := sha256.New()
	r.Units(func(_, g, end int, pair bool) {
		u := [3]int32{int32(g), int32(end), 0}
		if pair {
			u[2] = 1
		}
		if err := binary.Write(h, binary.LittleEndian, u); err != nil {
			panic(err)
		}
	})
	return hex.EncodeToString(h.Sum(nil))
}

// goldenUnits are unitsHash of every fixture of TestDispatchUnitsGolden.
var goldenUnits = map[string]string{
	"lap2d:40/DAD-IC0/threads=2":     "68769d35560ecf0926fce2d8cb62aad3e6da13e26c5e6ceaab0a5f049f427136",
	"lap2d:40/DAD-IC0/threads=4":     "68769d35560ecf0926fce2d8cb62aad3e6da13e26c5e6ceaab0a5f049f427136",
	"lap2d:40/DAD-ILU0/threads=2":    "68769d35560ecf0926fce2d8cb62aad3e6da13e26c5e6ceaab0a5f049f427136",
	"lap2d:40/DAD-ILU0/threads=4":    "68769d35560ecf0926fce2d8cb62aad3e6da13e26c5e6ceaab0a5f049f427136",
	"lap2d:40/GS-1sweeps/threads=4":  "6753998d35e8fec0d94dfd5ed2d3a0a36446a96f16d52ef0602cd3cd44f41930",
	"lap2d:40/GS-3sweeps/threads=4":  "922546a489a72c3960021ccf2426d799cd4d838da0f17b0ad6e391fa91c8e5ce",
	"lap2d:40/IC0-TRSV/threads=2":    "68769d35560ecf0926fce2d8cb62aad3e6da13e26c5e6ceaab0a5f049f427136",
	"lap2d:40/IC0-TRSV/threads=4":    "68769d35560ecf0926fce2d8cb62aad3e6da13e26c5e6ceaab0a5f049f427136",
	"lap2d:40/ILU0-TRSV/threads=2":   "68769d35560ecf0926fce2d8cb62aad3e6da13e26c5e6ceaab0a5f049f427136",
	"lap2d:40/ILU0-TRSV/threads=4":   "68769d35560ecf0926fce2d8cb62aad3e6da13e26c5e6ceaab0a5f049f427136",
	"lap2d:40/MV-MV/threads=2":       "f980e3a7109a42b5bb6ad52a7052b3a49e7873da4116fa50557be9b4985c5e92",
	"lap2d:40/MV-MV/threads=4":       "ce7610aca544fa0a44a804083b212dcddf5feabfefec545f9758bdef130c7836",
	"lap2d:40/TRSV-MV/threads=2":     "1fb54de8e7b1966a264ee3fc2dd041c804db558c796abf9f1aa5fb338ebc306b",
	"lap2d:40/TRSV-MV/threads=4":     "40c6b007b563f55016cdb886d271d6d0702faed248c61631133afaec7ac4f4ca",
	"lap2d:40/TRSV-TRSV/threads=2":   "56901042ae46071e8faf5f9193cdbff9931d4e2e2cca46786f029adaa5bd4605",
	"lap2d:40/TRSV-TRSV/threads=4":   "6e4542af94d91fbacae74a08ee42855ceff5f603bdfa8e5a4781fb81d544800d",
	"lap2d:40/cg/threads=4":          "40c6b007b563f55016cdb886d271d6d0702faed248c61631133afaec7ac4f4ca",
	"lap2d:40/pcg/threads=4":         "58fef95fe7e91f1a2161e44cb785099f1b2db6d2d6144a991e675d1c86671dbf",
	"pow:4000:6/DAD-IC0/threads=2":   "23bf73c43ce905443fc9d643e1032b21e13fa261b46c0ed72eee6ca4c7004c2c",
	"pow:4000:6/DAD-IC0/threads=4":   "23bf73c43ce905443fc9d643e1032b21e13fa261b46c0ed72eee6ca4c7004c2c",
	"pow:4000:6/DAD-ILU0/threads=2":  "23bf73c43ce905443fc9d643e1032b21e13fa261b46c0ed72eee6ca4c7004c2c",
	"pow:4000:6/DAD-ILU0/threads=4":  "23bf73c43ce905443fc9d643e1032b21e13fa261b46c0ed72eee6ca4c7004c2c",
	"pow:4000:6/IC0-TRSV/threads=2":  "23bf73c43ce905443fc9d643e1032b21e13fa261b46c0ed72eee6ca4c7004c2c",
	"pow:4000:6/IC0-TRSV/threads=4":  "23bf73c43ce905443fc9d643e1032b21e13fa261b46c0ed72eee6ca4c7004c2c",
	"pow:4000:6/ILU0-TRSV/threads=2": "23bf73c43ce905443fc9d643e1032b21e13fa261b46c0ed72eee6ca4c7004c2c",
	"pow:4000:6/ILU0-TRSV/threads=4": "23bf73c43ce905443fc9d643e1032b21e13fa261b46c0ed72eee6ca4c7004c2c",
	"pow:4000:6/MV-MV/threads=2":     "aba55291caaa59d17b3bb6ca65bb567748fb49404f1175677f4d20165f59f4e0",
	"pow:4000:6/MV-MV/threads=4":     "fc129fde9598b121750212d2436e8d9e794d9073bd13ddecf72406cb55acea9f",
	"pow:4000:6/TRSV-MV/threads=2":   "c53837d913f96f08bde80bcb8d0c5a21fb3c252852be26cd437f203e5550507b",
	"pow:4000:6/TRSV-MV/threads=4":   "25bb11f6643fbbfb8b485758ba51583ca703b7ab2e34b91195a7e74e2fdabe2b",
	"pow:4000:6/TRSV-TRSV/threads=2": "3753a78ba67a612ff2614bca6a5074ca94b48b0189a65cebb0a01da04f901a81",
	"pow:4000:6/TRSV-TRSV/threads=4": "23910805530690090b83e79400c87f25793d5727fef9d1bcd9c95248c3bfa04c",
	"pow:8000:6/DAD-IC0/threads=2":   "21ea40513efb590e5855206b9cd1e556ba1fc99c508c5987fa6a9f14401bf9b5",
	"pow:8000:6/DAD-ILU0/threads=2":  "21ea40513efb590e5855206b9cd1e556ba1fc99c508c5987fa6a9f14401bf9b5",
	"pow:8000:6/IC0-TRSV/threads=2":  "21ea40513efb590e5855206b9cd1e556ba1fc99c508c5987fa6a9f14401bf9b5",
	"pow:8000:6/ILU0-TRSV/threads=2": "21ea40513efb590e5855206b9cd1e556ba1fc99c508c5987fa6a9f14401bf9b5",
	"pow:8000:6/MV-MV/threads=2":     "3b08bd46970ac5244e9eb87ad1e884e4e56bdda991644422843570ca9567dca2",
	"pow:8000:6/TRSV-MV/threads=2":   "38e1a3357402c9a89b4c5ec5b49ead34832c5e9654088138fe0b75cefdef381f",
	"pow:8000:6/TRSV-TRSV/threads=2": "29975a10e6050ecc46566dc4c0dddba44d102dafb3e2c0584b974bad065556aa",
}

// TestDispatchUnitsGolden pins how exec.NewRunner splits each program into
// dispatch units — which spans run through a fused pair body and which as one
// single-loop batch — on every TestScheduleGolden fixture and on the seven
// combinations over the nested-dissection-ordered pow:8000:6 the churn
// benchmark opens. A change to the runner's representation keeps them.
func TestDispatchUnitsGolden(t *testing.T) {
	got := map[string]string{}
	pin := func(name string, in *combos.Instance, threads int) {
		prog := fusedProgram(t, in.Loops, in.Reuse, len(in.Kernels), threads)
		got[name] = unitsHash(exec.NewRunner(in.Kernels, prog))
	}
	scheduleFixtures(t, pin)
	a, err := suite.Parse("pow:8000:6", true)
	if err != nil {
		t.Fatal(err)
	}
	for id := range combos.Names {
		in, err := combos.Build(id, a)
		if err != nil {
			t.Fatal(err)
		}
		pin("pow:8000:6/"+in.Name+"/threads=2", in, 2)
	}

	for key, sum := range got {
		if want, ok := goldenUnits[key]; !ok || sum != want {
			t.Errorf("%s: dispatch units %s, golden %q", key, sum, want)
		}
	}
	for key := range goldenUnits {
		if _, ok := got[key]; !ok {
			t.Errorf("%s: golden dispatch units no longer built", key)
		}
	}
}

// modelSpeedup is a schedule's work over its span: the summed weight of every
// iteration over the sum, per s-partition, of its heaviest w-partition.
func modelSpeedup(sched *core.Schedule, loops *core.Loops) float64 {
	work, span := 0, 0
	for _, st := range sched.Stats(loops) {
		heaviest := 0
		for _, c := range st.Costs {
			work += c
			heaviest = max(heaviest, c)
		}
		span += heaviest
	}
	return float64(work) / float64(max(span, 1))
}

// speedupFloors are the least model speed-up (modelSpeedup) every fixture of
// TestScheduleModelSpeedupRatchet may reach, each a measured value rounded
// down to 3 decimals.
var speedupFloors = map[string]float64{
	"lap2d:40/DAD-IC0/threads=2":     1.917,
	"lap2d:40/DAD-IC0/threads=4":     3.582,
	"lap2d:40/DAD-ILU0/threads=2":    1.885,
	"lap2d:40/DAD-ILU0/threads=4":    3.600,
	"lap2d:40/GS-1sweeps/threads=4":  3.594,
	"lap2d:40/GS-3sweeps/threads=4":  2.993,
	"lap2d:40/IC0-TRSV/threads=2":    1.917,
	"lap2d:40/IC0-TRSV/threads=4":    3.574,
	"lap2d:40/ILU0-TRSV/threads=2":   1.882,
	"lap2d:40/ILU0-TRSV/threads=4":   3.606,
	"lap2d:40/MV-MV/threads=2":       1.982,
	"lap2d:40/MV-MV/threads=4":       3.871,
	"lap2d:40/TRSV-MV/threads=2":     1.570,
	"lap2d:40/TRSV-MV/threads=4":     2.373,
	"lap2d:40/TRSV-TRSV/threads=2":   1.882,
	"lap2d:40/TRSV-TRSV/threads=4":   3.616,
	"lap2d:40/cg/threads=4":          3.265,
	"lap2d:40/pcg/threads=4":         2.895,
	"pow:4000:6/DAD-IC0/threads=2":   1.865,
	"pow:4000:6/DAD-IC0/threads=4":   3.834,
	"pow:4000:6/DAD-ILU0/threads=2":  1.866,
	"pow:4000:6/DAD-ILU0/threads=4":  3.831,
	"pow:4000:6/IC0-TRSV/threads=2":  1.749,
	"pow:4000:6/IC0-TRSV/threads=4":  1.749,
	"pow:4000:6/ILU0-TRSV/threads=2": 1.861,
	"pow:4000:6/ILU0-TRSV/threads=4": 3.839,
	"pow:4000:6/MV-MV/threads=2":     1.982,
	"pow:4000:6/MV-MV/threads=4":     3.956,
	"pow:4000:6/TRSV-MV/threads=2":   1.128,
	"pow:4000:6/TRSV-MV/threads=4":   1.292,
	"pow:4000:6/TRSV-TRSV/threads=2": 1.759,
	"pow:4000:6/TRSV-TRSV/threads=4": 3.585,
}

// TestScheduleModelSpeedupRatchet holds every TestScheduleGolden fixture's
// model speed-up at or above its floor, so a schedule change cannot narrow a
// shipped schedule unnoticed. A change that widens one raises its floor.
func TestScheduleModelSpeedupRatchet(t *testing.T) {
	got := map[string]float64{}
	scheduleFixtures(t, func(name string, in *combos.Instance, threads int) {
		sched, _ := inspect(t, in.Loops, in.Reuse, len(in.Kernels), threads)
		got[name] = modelSpeedup(sched, in.Loops)
	})
	for key, v := range got {
		if floor, ok := speedupFloors[key]; !ok || v < floor {
			t.Errorf("%s: model speed-up %.6f, floor %v", key, v, floor)
		}
	}
	for key := range speedupFloors {
		if _, ok := got[key]; !ok {
			t.Errorf("%s: fixture no longer built", key)
		}
	}
}
