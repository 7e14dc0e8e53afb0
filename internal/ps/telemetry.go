package ps

import (
	"fmt"

	"hetkg/internal/telemetry"
)

// Telemetry transport (DESIGN.md §12): fleet reports ride the same TCP
// request frames as pulls, pushes, and membership ops. Op 'T' carries one
// telemetry.Report as JSON, the encoding /metrics and /fleet serve, to the
// coordinator shard, which folds it into its Fleet aggregator. A report
// holding a non-finite gauge has no JSON form and is not sent. A shard without a coordinator (or a coordinator
// without a Fleet) refuses the op by name.

// opTelemetry ships one labeled metrics snapshot to the coordinator.
const opTelemetry = 'T'

// SendTelemetry implements telemetry.Sender over the wire: one op 'T'
// request on the coordinator link.
func (cc *CoordClient) SendTelemetry(rep telemetry.Report) error {
	_, err := call[struct{}](cc, opTelemetry, &rep)
	return err
}

// SendTelemetry implements telemetry.Sender in process: the report goes
// straight into the coordinator's Fleet aggregator. Single-process
// elastic runs and tests use this path; remote processes arrive via op
// 'T' over TCP.
func (m *Membership) SendTelemetry(rep telemetry.Report) error {
	if m.cfg.Telemetry == nil {
		return fmt.Errorf("ps: coordinator has no fleet aggregator")
	}
	return m.cfg.Telemetry.Ingest(rep)
}
