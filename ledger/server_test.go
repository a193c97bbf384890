package main

import (
	"os"
	"strings"
	"testing"
	"time"
)

func TestParseStatCPU(t *testing.T) {
	// Fields after the command: state ppid pgrp session tty_nr tpgid flags
	// minflt cminflt majflt cmajflt utime stime cutime cstime ...
	rest := " S 1 42 42 0 -1 4194560 900 0 3 0 250 50 7 9 20 0 4 0 123 456 789"
	for _, comm := range []string{"(dshserve)", "(my (odd) cmd)", "(a b c)", "())"} {
		got, err := parseStatCPU("4242 " + comm + rest)
		if err != nil {
			t.Fatalf("%s: %v", comm, err)
		}
		if want := 3 * time.Second; got != want {
			t.Errorf("%s: cpu %v, want %v (300 ticks of USER_HZ 100)", comm, got, want)
		}
	}
	for _, bad := range []string{"", "4242 dshserve S 1", "4242 (x) S 1 2 3", "4242 (x)" + strings.Replace(rest, "250", "x", 1)} {
		if _, err := parseStatCPU(bad); err == nil {
			t.Errorf("parseStatCPU(%q) accepted malformed input", bad)
		}
	}
}

func TestProcReadersOnSelf(t *testing.T) {
	if _, err := os.Stat("/proc/self/stat"); err != nil {
		t.Skip("no /proc")
	}
	if _, err := cpuTime(os.Getpid()); err != nil {
		t.Fatal(err)
	}
	rss, err := peakRSS(os.Getpid())
	if err != nil {
		t.Fatal(err)
	}
	if rss <= 0 {
		t.Errorf("peak RSS %d", rss)
	}
}

func TestServerLogFindsAddress(t *testing.T) {
	l := &serverLog{addr: make(chan string, 1)}
	l.Write([]byte("2026/01/01 00:00:00 in-memory index: 0 points\n2026/01/01 00:00:00 serving on 127.0.0.1:"))
	select {
	case a := <-l.addr:
		t.Fatalf("address %q reported before its line ended", a)
	default:
	}
	l.Write([]byte("41234\n"))
	if got := <-l.addr; got != "127.0.0.1:41234" {
		t.Errorf("address %q", got)
	}
}
