package sched

import (
	"testing"

	"mtier/internal/grid"
	"mtier/internal/topo/torus"
	"mtier/internal/workload"
)

func machine(t testing.TB) *torus.Torus {
	t.Helper()
	tor, err := torus.New(grid.Shape{4, 4, 4})
	if err != nil {
		t.Fatal(err)
	}
	return tor
}

// schedule runs jobs on a fresh test machine and returns the per-job
// events.
func schedule(t testing.TB, alloc AllocPolicy, seed int64, jobs []Job) ([]Event, error) {
	sch, err := Run(Config{Topo: machine(t), Alloc: alloc, Seed: seed}, jobs)
	if err != nil {
		return nil, err
	}
	return sch.Events, nil
}

func job(name string, tasks int, submit float64) Job {
	return Job{
		Name:     name,
		Workload: workload.UnstructuredApp,
		Params:   workload.Params{Tasks: tasks, MsgBytes: 1e6, Seed: 1},
		Submit:   submit,
	}
}

func TestSingleJob(t *testing.T) {
	ev, err := schedule(t, FirstFit, 0, []Job{job("a", 16, 0)})
	if err != nil {
		t.Fatal(err)
	}
	if len(ev) != 1 {
		t.Fatal("one event expected")
	}
	if ev[0].Start != 0 || ev[0].End <= 0 || ev[0].RunTime <= 0 {
		t.Fatalf("bad event: %+v", ev[0])
	}
	if len(ev[0].Endpoints) != 16 {
		t.Fatalf("allocated %d endpoints", len(ev[0].Endpoints))
	}
	for i, ep := range ev[0].Endpoints {
		if int(ep) != i {
			t.Fatalf("first-fit should allocate 0..15, got %v", ev[0].Endpoints)
		}
	}
}

func TestJobsShareMachineWhenTheyFit(t *testing.T) {
	ev, err := schedule(t, FirstFit, 0, []Job{job("a", 32, 0), job("b", 32, 0)})
	if err != nil {
		t.Fatal(err)
	}
	if ev[0].Start != 0 || ev[1].Start != 0 {
		t.Fatalf("both jobs fit, both should start at 0: %g, %g", ev[0].Start, ev[1].Start)
	}
	// Disjoint allocations.
	used := map[int32]bool{}
	for _, e := range ev {
		for _, ep := range e.Endpoints {
			if used[ep] {
				t.Fatalf("endpoint %d double-allocated", ep)
			}
			used[ep] = true
		}
	}
}

func TestFCFSQueuesWhenFull(t *testing.T) {
	ev, err := schedule(t, FirstFit, 0, []Job{job("a", 48, 0), job("b", 48, 0)})
	if err != nil {
		t.Fatal(err)
	}
	if ev[1].Start < ev[0].End {
		t.Fatalf("job b started at %g before a ended at %g", ev[1].Start, ev[0].End)
	}
	if ev[1].WaitTime <= 0 {
		t.Fatal("job b should have waited")
	}
	if ev[1].Stretch <= 1 {
		t.Fatalf("stretch should exceed 1, got %g", ev[1].Stretch)
	}
}

func TestSubmitTimesRespected(t *testing.T) {
	ev, err := schedule(t, FirstFit, 0, []Job{job("a", 8, 0), job("b", 8, 100)})
	if err != nil {
		t.Fatal(err)
	}
	if ev[1].Start < 100 {
		t.Fatalf("job b started before submission: %g", ev[1].Start)
	}
}

func TestRandomFitDisjoint(t *testing.T) {
	ev, err := schedule(t, RandomFit, 11, []Job{job("a", 20, 0), job("b", 20, 0), job("c", 20, 0)})
	if err != nil {
		t.Fatal(err)
	}
	used := map[int32]bool{}
	for _, e := range ev {
		for _, ep := range e.Endpoints {
			if used[ep] {
				t.Fatalf("endpoint %d double-allocated", ep)
			}
			used[ep] = true
		}
	}
}

func TestOversizedJobRejected(t *testing.T) {
	if _, err := schedule(t, FirstFit, 0, []Job{job("a", 100, 0)}); err == nil {
		t.Fatal("job larger than machine accepted")
	}
}

func TestDeterministicSchedule(t *testing.T) {
	jobs := []Job{job("a", 48, 0), job("b", 16, 0), job("c", 32, 5)}
	e1, err := schedule(t, RandomFit, 3, jobs)
	if err != nil {
		t.Fatal(err)
	}
	e2, err := schedule(t, RandomFit, 3, jobs)
	if err != nil {
		t.Fatal(err)
	}
	for i := range e1 {
		if e1[i].Start != e2[i].Start || e1[i].End != e2[i].End {
			t.Fatalf("schedule not deterministic at job %d", i)
		}
	}
}
