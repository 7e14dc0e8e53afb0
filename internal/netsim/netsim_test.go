package netsim

import (
	"sync"
	"testing"
	"time"
)

func TestDefaultModelValidates(t *testing.T) {
	if err := Default1Gbps().Validate(); err != nil {
		t.Fatalf("default model invalid: %v", err)
	}
}

func TestValidateRejectsBadModels(t *testing.T) {
	bad := []CostModel{
		{RemoteBandwidthBps: 0, LocalBandwidthBps: 1},
		{RemoteBandwidthBps: 1, LocalBandwidthBps: -1},
		{RemoteBandwidthBps: 1, LocalBandwidthBps: 1, RemoteLatency: -time.Second},
	}
	for i, m := range bad {
		if err := m.Validate(); err == nil {
			t.Errorf("bad model %d accepted", i)
		}
	}
}

func TestRemoteTimeComposition(t *testing.T) {
	cm := CostModel{
		RemoteLatency:      time.Millisecond,
		RemoteBandwidthBps: 1000, // 1000 B/s: 500 bytes = 500ms
		LocalBandwidthBps:  1e9,
	}
	got := cm.RemoteTime(2, 500)
	want := 2*time.Millisecond + 500*time.Millisecond
	if got != want {
		t.Errorf("RemoteTime = %v, want %v", got, want)
	}
}

func TestLocalMuchCheaperThanRemote(t *testing.T) {
	cm := Default1Gbps()
	remote := cm.RemoteTime(100, 1<<20)
	local := cm.LocalTime(100, 1<<20)
	if local*10 >= remote {
		t.Errorf("local (%v) should be far cheaper than remote (%v)", local, remote)
	}
}

func TestMeterAndSnapshot(t *testing.T) {
	var m Meter
	m.RecordLocal(100)
	m.RecordLocal(50)
	m.RecordRemote(1000)
	s := m.Snapshot()
	if s.LocalMsgs != 2 || s.LocalBytes != 150 || s.RemoteMsgs != 1 || s.RemoteBytes != 1000 {
		t.Errorf("Snapshot = %+v", s)
	}
	m.Reset()
	if m.Snapshot() != (Snapshot{}) {
		t.Error("Reset did not zero the meter")
	}
}

func TestSnapshotSub(t *testing.T) {
	a := Snapshot{LocalMsgs: 10, LocalBytes: 100, RemoteMsgs: 5, RemoteBytes: 50}
	b := Snapshot{LocalMsgs: 4, LocalBytes: 40, RemoteMsgs: 1, RemoteBytes: 10}
	d := a.Sub(b)
	if d != (Snapshot{LocalMsgs: 6, LocalBytes: 60, RemoteMsgs: 4, RemoteBytes: 40}) {
		t.Errorf("Sub = %+v", d)
	}
}

func TestSnapshotTime(t *testing.T) {
	cm := CostModel{
		RemoteLatency:      time.Millisecond,
		RemoteBandwidthBps: 1e6,
		LocalLatency:       time.Microsecond,
		LocalBandwidthBps:  1e9,
	}
	s := Snapshot{LocalMsgs: 1, LocalBytes: 0, RemoteMsgs: 1, RemoteBytes: 0}
	if got := s.Time(cm); got != time.Millisecond+time.Microsecond {
		t.Errorf("Time = %v", got)
	}
}

func TestMeterConcurrent(t *testing.T) {
	var m Meter
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 500; j++ {
				m.RecordRemote(10)
				m.RecordLocal(1)
			}
		}()
	}
	wg.Wait()
	s := m.Snapshot()
	if s.RemoteMsgs != 4000 || s.RemoteBytes != 40000 || s.LocalMsgs != 4000 {
		t.Errorf("concurrent Snapshot = %+v", s)
	}
}

func TestEmptySnapshotString(t *testing.T) {
	if (Snapshot{}).String() == "" {
		t.Error("String empty")
	}
}
