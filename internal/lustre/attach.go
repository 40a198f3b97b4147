package lustre

import (
	"xtsim/internal/core"
	"xtsim/internal/timeline"
)

// Attach builds a filesystem on the system's engine and fabric and
// registers it with the system. This is the front door for experiments:
// OSS servers land on the fabric's reserved SIO nodes when the system was
// built with core.NewSystemSIO (legacy top-of-range placement otherwise),
// and the I/O counters come up whenever the system's telemetry is enabled.
func Attach(sys *core.System, cfg Config) (*FS, error) {
	fs, err := New(sys.Eng, sys.Fabric, cfg)
	if err != nil {
		return nil, err
	}
	if sys.Tel != nil {
		fs.EnableTelemetry(sys.Tel)
	}
	sys.AttachIO(fs.TelemetryReport)
	if sys.Tl != nil {
		// After AttachIO: its admission check has revoked the sharded
		// scheduler, folding the recorder back to one collector — the one
		// OST samples must land in.
		fs.EnableTimeline(sys.Tl.Dom(0))
		sys.Tl.SetResources(timeline.OST, cfg.TotalOSTs())
	}
	return fs, nil
}
