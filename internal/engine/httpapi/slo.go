package httpapi

import (
	"net/http"

	"uwm/internal/engine"
	"uwm/internal/evlog"
	"uwm/internal/slo"
)

// sloBody is the GET /v1/slo payload.
type sloBody struct {
	SLOs []slo.SLOStatus `json:"slos"`
}

// alertsBody is the GET /v1/alerts payload.
type alertsBody struct {
	Alerts []slo.Alert `json:"alerts"`
	Firing int         `json:"firing"`
}

// logsBody is the GET /v1/logs payload.
type logsBody struct {
	Records []evlog.Record `json:"records"`
}

// sloStatus serves every SLO's budget and per-policy burn rates.
func sloStatus(e *engine.Engine, w http.ResponseWriter, _ *http.Request) {
	se := e.SLO()
	if se == nil {
		writeJSON(w, http.StatusNotFound,
			errorBody{Error: "slo engine disabled (engine started without one)"})
		return
	}
	st := se.StatusNow()
	if st == nil {
		st = []slo.SLOStatus{}
	}
	writeJSON(w, http.StatusOK, sloBody{SLOs: st})
}

// alerts serves the flat alert view: one row per (SLO, policy), with
// the correlated kept-trace ids attached to firing rows.
func alerts(e *engine.Engine, w http.ResponseWriter, _ *http.Request) {
	se := e.SLO()
	if se == nil {
		writeJSON(w, http.StatusNotFound,
			errorBody{Error: "slo engine disabled (engine started without one)"})
		return
	}
	as := se.Alerts()
	if as == nil {
		as = []slo.Alert{}
	}
	writeJSON(w, http.StatusOK, alertsBody{Alerts: as, Firing: se.Firing()})
}

// alertsStream is the SSE live tail of alert transitions, mirroring
// the flight recorder's decision stream: every fire and resolve
// reaches the client as one `transition` event.
func alertsStream(e *engine.Engine, w http.ResponseWriter, r *http.Request) {
	se := e.SLO()
	if se == nil {
		writeJSON(w, http.StatusNotFound,
			errorBody{Error: "slo engine disabled (engine started without one)"})
		return
	}
	streamSSE(w, r, "uwm alert live tail", "transition", func() (<-chan slo.Transition, func()) {
		id, ch := se.Subscribe()
		return ch, func() { se.Unsubscribe(id) }
	})
}

// logs serves the event log's in-memory ring, oldest first.
func logs(e *engine.Engine, w http.ResponseWriter, _ *http.Request) {
	lg := e.EventLog()
	if lg == nil {
		writeJSON(w, http.StatusNotFound,
			errorBody{Error: "event log disabled (engine started without one)"})
		return
	}
	recs := lg.Recent()
	if recs == nil {
		recs = []evlog.Record{}
	}
	writeJSON(w, http.StatusOK, logsBody{Records: recs})
}
