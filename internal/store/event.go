package store

import (
	"encoding/json"

	"imc2/internal/imcerr"
	"imc2/internal/model"
	"imc2/internal/platform"
	"imc2/internal/truth"
)

// EventType names a campaign mutation. The string values appear verbatim
// in WAL records and snapshots; they are part of the on-disk format.
type EventType string

const (
	// EventCreated registers a campaign: its ID, name, tasks, settle
	// configuration, and whether it started as a draft.
	EventCreated EventType = "created"
	// EventOpened publicizes a draft campaign.
	EventOpened EventType = "opened"
	// EventSubmissions appends a batch of accepted sealed submissions, in
	// acceptance order.
	EventSubmissions EventType = "submissions"
	// EventCloseRequested marks the campaign closing: a settle is about
	// to run. A close-requested with no later settled event is a settle
	// the process did not survive; recovery re-queues it.
	EventCloseRequested EventType = "close_requested"
	// EventSettled finalizes the campaign with its report (and audit).
	// The event is appended before the in-memory state admits the
	// campaign settled, so a settled campaign is always durable.
	EventSettled EventType = "settled"
	// EventCancelled abandons a draft or open campaign.
	EventCancelled EventType = "cancelled"
)

// Event is one durable campaign mutation. Exactly the payload field
// matching Type is set. Submissions, reports and audits are logged as
// the platform's own types: their JSON encodings are the record format,
// the same bytes the wire serves. Submissions are the platform's
// index-form rows, encoded as the equivalent []platform.Submission.
type Event struct {
	// Seq is the event's position in the log, strictly increasing from 1.
	// Append assigns it; events handed to Append carry zero.
	Seq uint64 `json:"seq"`
	// Type selects the payload.
	Type EventType `json:"type"`
	// Campaign is the registry-assigned campaign ID the event applies to.
	Campaign string `json:"campaign"`

	Created     *CreatedPayload `json:"created,omitempty"`
	Submissions platform.Rows   `json:"submissions,omitempty"`
	Settled     *SettledPayload `json:"settled,omitempty"`
}

// appendEvent appends ev's JSON encoding, the bytes of json.Marshal(ev),
// to buf. A submissions event's rows are appended directly:
// encoding/json would re-scan the whole output of their MarshalJSON.
func appendEvent(buf []byte, ev Event) ([]byte, error) {
	if ev.Type != EventSubmissions || len(ev.Submissions) == 0 || ev.Created != nil || ev.Settled != nil {
		b, err := json.Marshal(ev)
		return append(buf, b...), err
	}
	head, err := json.Marshal(struct {
		Seq      uint64    `json:"seq"`
		Type     EventType `json:"type"`
		Campaign string    `json:"campaign"`
	}{ev.Seq, ev.Type, ev.Campaign})
	if err != nil {
		return nil, err
	}
	buf = append(append(buf, head[:len(head)-1]...), `,"submissions":`...)
	if buf, err = ev.Submissions.AppendJSON(buf); err != nil {
		return nil, err
	}
	return append(buf, '}'), nil
}

// CreatedPayload declares a campaign.
type CreatedPayload struct {
	Name  string       `json:"name,omitempty"`
	Tasks []model.Task `json:"tasks"`
	Draft bool         `json:"draft,omitempty"`
	// Config is the serializable core of the campaign's settle
	// configuration (see ConfigRecord for what survives).
	Config ConfigRecord `json:"config"`
}

// SettledPayload finalizes a campaign.
type SettledPayload struct {
	Report *platform.Report `json:"report"`
	Audit  *platform.Audit  `json:"audit,omitempty"`
}

// ConfigRecord is the serializable core of a platform.Config: everything
// needed to re-run a recovered campaign's settle bit-identically, as long
// as the configuration used only the paper's numeric parameters.
// Function-valued extensions (a Similarity func, a custom FalseValues
// model, an Executor) cannot be serialized; campaigns configured with
// them recover with those fields unset. Campaigns created over the wire
// never carry them — the /v2 surface only exposes the numeric core — so
// every wire-created campaign round-trips exactly.
type ConfigRecord struct {
	TruthMethod     truth.Method       `json:"truth_method"`
	Mechanism       platform.Mechanism `json:"mechanism"`
	CopyProb        float64            `json:"copy_prob"`
	InitAccuracy    float64            `json:"init_accuracy"`
	PriorDependence float64            `json:"prior_dependence"`
	MaxIterations   int                `json:"max_iterations"`
	Parallelism     int                `json:"parallelism,omitempty"`
}

// ConfigFromPlatform extracts the serializable core of a settle
// configuration.
func ConfigFromPlatform(cfg platform.Config) ConfigRecord {
	return ConfigRecord{
		TruthMethod:     cfg.TruthMethod,
		Mechanism:       cfg.Mechanism,
		CopyProb:        cfg.TruthOptions.CopyProb,
		InitAccuracy:    cfg.TruthOptions.InitAccuracy,
		PriorDependence: cfg.TruthOptions.PriorDependence,
		MaxIterations:   cfg.TruthOptions.MaxIterations,
		Parallelism:     cfg.TruthOptions.Parallelism,
	}
}

// ToPlatform rebuilds a settle configuration from the durable core.
// Fields with no serializable form (Similarity, FalseValues, Executor,
// Admission) come back zero; the registry re-injects scheduler seams at
// settle time exactly as it does for campaigns created live.
func (c ConfigRecord) ToPlatform() platform.Config {
	cfg := platform.DefaultConfig()
	cfg.TruthMethod = c.TruthMethod
	cfg.Mechanism = c.Mechanism
	cfg.TruthOptions.CopyProb = c.CopyProb
	cfg.TruthOptions.InitAccuracy = c.InitAccuracy
	cfg.TruthOptions.PriorDependence = c.PriorDependence
	cfg.TruthOptions.MaxIterations = c.MaxIterations
	cfg.TruthOptions.Parallelism = c.Parallelism
	return cfg
}

// validate checks the event's structural invariants before it is encoded
// or applied: the type is known, the campaign ID is present, and exactly
// the matching payload is set.
func (ev Event) validate() error {
	if ev.Campaign == "" {
		return imcerr.New(imcerr.CodeInvalid, "store: event %q has no campaign ID", ev.Type)
	}
	switch ev.Type {
	case EventCreated:
		if ev.Created == nil {
			return imcerr.New(imcerr.CodeInvalid, "store: created event without payload")
		}
		if len(ev.Created.Tasks) == 0 {
			return imcerr.New(imcerr.CodeInvalid, "store: created event for %q has no tasks", ev.Campaign)
		}
	case EventSubmissions:
		if len(ev.Submissions) == 0 {
			return imcerr.New(imcerr.CodeInvalid, "store: submissions event for %q is empty", ev.Campaign)
		}
	case EventSettled:
		if ev.Settled == nil || ev.Settled.Report == nil {
			return imcerr.New(imcerr.CodeInvalid, "store: settled event for %q without report", ev.Campaign)
		}
	case EventOpened, EventCloseRequested, EventCancelled:
		// No payload.
	default:
		return imcerr.New(imcerr.CodeInvalid, "store: unknown event type %q", ev.Type)
	}
	return nil
}
