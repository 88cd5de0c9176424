package cluster

import (
	"slices"
	"testing"
)

// The brute-force per-job scans below are the reference the digest is
// checked against: each answers one question with its own full pass over
// the genome, the way the schedule's per-job accessors once did.

func refRunningJobs(s *Schedule) []JobID {
	var jobs []JobID
	for _, sl := range s.slots {
		if !sl.Idle() && !slices.Contains(jobs, sl.Job) {
			jobs = append(jobs, sl.Job)
		}
	}
	return jobs
}

func refGlobalBatch(s *Schedule, j JobID) int {
	var b int
	for _, sl := range s.slots {
		if sl.Job == j {
			b += sl.Batch
		}
	}
	return b
}

func refGPUsOf(s *Schedule, j JobID) []GPUID {
	var gs []GPUID
	for i, sl := range s.slots {
		if sl.Job == j {
			gs = append(gs, GPUID(i))
		}
	}
	return gs
}

func refServersOf(s *Schedule, j JobID) int {
	var n int
	for srv := range s.topo.Servers {
		lo, hi := s.topo.ServerRange(srv)
		for g := lo; g < hi; g++ {
			if s.slots[g].Job == j {
				n++
				break
			}
		}
	}
	return n
}

// refFragments counts the contiguous GPU spans job j occupies.
func refFragments(s *Schedule, j JobID) int {
	var frags int
	inRun := false
	for _, sl := range s.slots {
		if sl.Job == j {
			if !inRun {
				frags++
			}
			inRun = true
		} else {
			inRun = false
		}
	}
	return frags
}

// alloc returns job j's digest entry, or the zero entry (no GPUs) when j
// is not running.
func alloc(s *Schedule, j JobID) Alloc {
	var d Digest
	d.Load(s)
	if a, ok := d.Lookup(j); ok {
		return *a
	}
	return Alloc{Job: j}
}

// checkDigest compares d, loaded from s, with the reference scans.
func checkDigest(t *testing.T, s *Schedule, d *Digest) {
	t.Helper()
	jobs := refRunningJobs(s)
	if len(d.Jobs) != len(jobs) {
		t.Fatalf("digest has %d jobs, want %v (%v)", len(d.Jobs), jobs, s)
	}
	for i, j := range jobs {
		a := d.Jobs[i]
		if a.Job != j {
			t.Fatalf("digest job %d = %d, want %d (first-occurrence order %v)", i, a.Job, j, jobs)
		}
		gpus := refGPUsOf(s, j)
		if a.GPUs != len(gpus) || a.Batch != refGlobalBatch(s, j) || a.Servers != refServersOf(s, j) {
			t.Fatalf("job %d: c=%d B=%d servers=%d, want %d/%d/%d (%v)", j, a.GPUs, a.Batch, a.Servers,
				len(gpus), refGlobalBatch(s, j), refServersOf(s, j), s)
		}
		if !slices.Equal(a.GPUIDs, gpus) {
			t.Fatalf("job %d GPUIDs = %v, want %v", j, a.GPUIDs, gpus)
		}
		if p, ok := d.Lookup(j); !ok || p != &d.Jobs[i] {
			t.Fatalf("Lookup(%d) does not find entry %d", j, i)
		}
	}
	if !slices.Equal(d.Idle, refGPUsOf(s, NoJob)) {
		t.Fatalf("Idle = %v, want %v", d.Idle, refGPUsOf(s, NoJob))
	}
	if _, ok := d.Lookup(NoJob); ok {
		t.Fatal("Lookup(NoJob) found an entry")
	}
}

// FuzzScheduleDigest decodes random genomes on uniform, mixed and
// single-server topologies and checks the digest against the reference
// scans, Update against a fresh Load, and Reorder's invariants.
func FuzzScheduleDigest(f *testing.F) {
	f.Add(uint8(0), []byte{0x31, 0x00, 0x31, 0x52, 0x52, 0x52, 0x00, 0x31})
	f.Add(uint8(1), []byte{0x13, 0x24, 0x13, 0x00, 0x35, 0x24, 0x13, 0x46, 0x00, 0x13, 0x57, 0x68})
	f.Add(uint8(2), []byte{0x31, 0x12, 0x23, 0x12, 0x00, 0x31})
	f.Add(uint8(0), []byte{})
	f.Add(uint8(1), []byte{0xff, 0xfe, 0x01, 0x80, 0x7f, 0x00, 0x11, 0x11, 0x11, 0x11, 0x11, 0x11, 0x11, 0x11, 0x11, 0x11})
	shapes := []string{"16x4", "4x8,2x4", "1x6"}
	f.Fuzz(func(t *testing.T, shape uint8, genes []byte) {
		topo, err := ParseShape(shapes[int(shape)%len(shapes)])
		if err != nil {
			t.Fatal(err)
		}
		s := NewSchedule(topo)
		// Each byte is one gene: the low nibble picks the job (0 ⇒ idle),
		// the high nibble the local batch.
		for g := 0; g < s.NumGPUs() && g < len(genes); g++ {
			if j := genes[g] & 0xf; j != 0 {
				s.SetSlot(GPUID(g), JobID(j%7), 1+int(genes[g]>>4))
			}
		}
		var d Digest
		d.Load(s)
		checkDigest(t, s, &d)

		// After one job moves onto the idle GPUs and gives up one of
		// its own, Update leaves every entry equal to a fresh digest's.
		if len(d.Jobs) > 0 && len(d.Idle) > 0 {
			j := d.Jobs[len(d.Jobs)-1].Job
			for _, g := range d.Idle {
				s.SetSlot(g, j, 3)
			}
			s.SetSlot(d.Jobs[len(d.Jobs)-1].GPUIDs[0], NoJob, 0)
			d.Update(s, j)
			var fresh Digest
			fresh.Load(s)
			for _, got := range d.Jobs {
				want, _ := fresh.Lookup(got.Job)
				if got.GPUs != want.GPUs || got.Batch != want.Batch || got.Servers != want.Servers ||
					!slices.Equal(got.GPUIDs, want.GPUIDs) {
					t.Fatalf("after Update(%d) job %d = %+v, fresh Load %+v", j, got.Job, got, *want)
				}
			}
			d.Load(s)
		}

		// Reorder keeps each job's batch multiset, makes every job one
		// contiguous span in first-occurrence order, and idles the tail.
		before := make(map[JobID][]int)
		for _, a := range d.Jobs {
			for _, g := range a.GPUIDs {
				before[a.Job] = append(before[a.Job], s.Slot(g).Batch)
			}
			slices.Sort(before[a.Job])
		}
		order := refRunningJobs(s)
		s.Reorder(&d)
		if err := s.Validate(); err != nil {
			t.Fatal(err)
		}
		if got := refRunningJobs(s); !slices.Equal(got, order) {
			t.Fatalf("Reorder changed first-occurrence order %v → %v", order, got)
		}
		busy := 0
		for _, j := range order {
			var bs []int
			for _, g := range refGPUsOf(s, j) {
				bs = append(bs, s.Slot(g).Batch)
			}
			slices.Sort(bs)
			if !slices.Equal(bs, before[j]) {
				t.Fatalf("job %d batches %v → %v after Reorder", j, before[j], bs)
			}
			if f := refFragments(s, j); f != 1 {
				t.Fatalf("job %d has %d fragments after Reorder (%v)", j, f, s)
			}
			busy += len(bs)
		}
		for g := busy; g < s.NumGPUs(); g++ {
			if !s.Slot(GPUID(g)).Idle() {
				t.Fatalf("GPU %d busy past the packed prefix of %d (%v)", g, busy, s)
			}
		}
		d.Load(s)
		checkDigest(t, s, &d)
	})
}
