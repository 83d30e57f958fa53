package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"sort"
	"syscall"
	"time"
)

// childProcs is the GOMAXPROCS every child runs under, pinned so a row
// means the same thing on a 2-core sandbox and a 64-core workstation.
const childProcs = 2

// sample is one child execution as the parent saw it: the child's own
// report plus the process-level costs only wait4 knows.
type sample struct {
	childOutput
	TotalS    float64 // spawn to exit
	CPUS      float64 // user+sys of the child
	PeakRSSMB float64
}

// spawn runs one fresh child on in and waits for it. Every repetition pays
// process start, runtime init and a cold heap, exactly as a CLI user does.
func spawn(in *childInput) (*sample, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	body, err := json.Marshal(in)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(self, "-child")
	cmd.Env = append(os.Environ(), fmt.Sprintf("GOMAXPROCS=%d", childProcs))
	cmd.Stdin = bytes.NewReader(body)
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = os.Stderr
	start := time.Now()
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("child: %w", err)
	}
	s := &sample{TotalS: time.Since(start).Seconds()}
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		s.CPUS = tvSeconds(ru.Utime) + tvSeconds(ru.Stime)
		s.PeakRSSMB = float64(ru.Maxrss) / 1024 // Linux reports KiB
	}
	if err := json.Unmarshal(stdout.Bytes(), &s.childOutput); err != nil {
		return nil, fmt.Errorf("child output: %w", err)
	}
	return s, nil
}

func tvSeconds(tv syscall.Timeval) float64 { return float64(tv.Sec) + float64(tv.Usec)/1e6 }

// quartiles returns the first quartile, median and third quartile by the
// exclusive method of Python's statistics.quantiles(v, n=4), which is what
// the driver applies to this benchmark's own output.
func quartiles(v []float64) (q1, med, q3 float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	switch n {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	at := func(i int) float64 {
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(2), at(3)
}

func median(v []float64) float64 {
	_, m, _ := quartiles(v)
	return m
}
