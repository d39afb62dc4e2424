package main

import (
	"os"
	"os/exec"
	"runtime"
	"strings"

	"paccel"
)

// environment is the header of a report: enough to tell whether two
// reports are comparable.
type environment struct {
	Commit     string `json:"commit"`
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"nproc"`
	CPUModel   string `json:"cpu_model"`
	Kernel     string `json:"kernel"`
	UDPGSO     bool   `json:"udp_gso"`
	UDPGRO     bool   `json:"udp_gro"`
}

func readEnvironment() environment {
	e := environment{
		Commit:     "unknown",
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		CPUModel:   "unknown",
		Kernel:     "unknown",
	}
	// Not every checkout is a git repository; the header then says so.
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		e.Commit = strings.TrimSpace(string(out))
	}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				e.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	if b, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		e.Kernel = strings.TrimSpace(string(b))
	}
	if t, err := paccel.ListenUDP("127.0.0.1:0"); err == nil {
		e.UDPGSO, e.UDPGRO = t.Offload()
		t.Close()
	}
	return e
}
