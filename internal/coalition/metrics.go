package coalition

import "agenp/internal/obs"

// Telemetry for the policy-sharing layer. Party counters advance once
// per shared policy; hub counters once per relayed frame.
var (
	statPublished = obs.C("coalition.policies.published")
	statAdopted   = obs.C("coalition.policies.adopted")
	statRejected  = obs.C("coalition.policies.rejected")
	// statDropped counts deliveries a Bus (and so a TCPTransport)
	// dropped because the subscriber's buffer was full.
	statDropped = obs.C("coalition.policies.dropped")
	// statVetDur is the end-to-end vetting latency of one incoming
	// shared policy (queue hand-off to PCP verdict), as seen by the
	// consuming party.
	statVetDur = obs.H("coalition.vet.duration")

	statHubMsgs  = obs.C("coalition.hub.messages")
	statHubBytes = obs.C("coalition.hub.bytes")

	// statFramesMalformed counts lines a TCPTransport skipped because
	// they do not decode; statFramesOversize counts connections a line
	// over maxFrameBytes ended, at the hub or at a transport.
	statFramesMalformed = obs.C("coalition.frames.malformed")
	statFramesOversize  = obs.C("coalition.frames.oversize")
)
