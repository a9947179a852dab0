package httpapi

// The unified error contract: every handler failure is serialized as
//
//	{"error": {"code": "<machine-readable-code>", "message": "<human text>"}}
//
// with the HTTP status looked up in ErrorStatus — ONE exhaustive
// code→status mapping used by every route, so clients can branch on
// the code instead of parsing prose and no handler can invent its own
// status for a known failure class.

import (
	"context"
	"errors"
	"net/http"

	"fairhealth"
	"fairhealth/internal/model"
	"fairhealth/internal/phr"
	"fairhealth/internal/ratings"
	"fairhealth/internal/search"
)

// Machine-readable error codes. Every error a handler can emit maps to
// exactly one of these.
const (
	// CodeInvalidBody: the request body is not decodable JSON.
	CodeInvalidBody = "invalid_body"
	// CodeInvalidArgument: a parameter is missing or malformed
	// (unparsable integer, empty required field, oversized batch).
	CodeInvalidArgument = "invalid_argument"
	// CodeInvalidQuery: a structurally valid GroupQuery failed the
	// contract validation (negative z/k, unknown method or
	// aggregation, unsupported method/aggregation combination).
	CodeInvalidQuery = "invalid_query"
	// CodeEmptyGroup: a group request over no members.
	CodeEmptyGroup = "empty_group"
	// CodeUnknownPatient: the named patient is not known to the
	// system (no profile, no ratings).
	CodeUnknownPatient = "unknown_patient"
	// CodeNotFound: a referenced resource other than a patient does
	// not exist.
	CodeNotFound = "not_found"
	// CodeUnprocessable: the request is well-formed but violates a
	// domain rule (rating out of range, invalid profile, duplicate
	// document).
	CodeUnprocessable = "unprocessable"
	// CodePayloadTooLarge: the request body exceeds the server bound.
	CodePayloadTooLarge = "payload_too_large"
	// CodeOverloaded: the in-flight limiter rejected the request.
	CodeOverloaded = "overloaded"
	// CodeTimeout: the per-request deadline expired before the
	// handler finished.
	CodeTimeout = "timeout"
	// CodeInternal: any failure not classified above.
	CodeInternal = "internal"
)

// ErrorStatus is the exhaustive error code → HTTP status mapping. It
// is exported so contract tests (and generated clients) can iterate
// it; handlers never pick a status any other way.
var ErrorStatus = map[string]int{
	CodeInvalidBody:     http.StatusBadRequest,
	CodeInvalidArgument: http.StatusBadRequest,
	CodeInvalidQuery:    http.StatusBadRequest,
	CodeEmptyGroup:      http.StatusBadRequest,
	CodeUnknownPatient:  http.StatusNotFound,
	CodeNotFound:        http.StatusNotFound,
	CodeUnprocessable:   http.StatusUnprocessableEntity,
	CodePayloadTooLarge: http.StatusRequestEntityTooLarge,
	CodeOverloaded:      http.StatusTooManyRequests,
	CodeTimeout:         http.StatusGatewayTimeout,
	CodeInternal:        http.StatusInternalServerError,
}

// ErrorInfo is the machine-readable error payload.
type ErrorInfo struct {
	Code    string `json:"code"`
	Message string `json:"message"`
}

// ErrorBody is the envelope of every error response.
type ErrorBody struct {
	Error ErrorInfo `json:"error"`
}

// apiError attaches an explicit code to an error, for failures that
// arise in the HTTP layer itself (missing parameters, body bounds)
// rather than from a library sentinel.
type apiError struct {
	code string
	err  error
}

func (e *apiError) Error() string { return e.err.Error() }
func (e *apiError) Unwrap() error { return e.err }

// coded wraps err with an explicit error code.
func coded(code string, err error) error { return &apiError{code: code, err: err} }

// classify resolves any handler error to its machine-readable code:
// an explicit apiError wins, then the library sentinels, then the
// transport-level classes, and finally CodeInternal.
func classify(err error) string {
	var ae *apiError
	var tooLarge *http.MaxBytesError
	switch {
	case errors.As(err, &ae):
		return ae.code
	case errors.Is(err, fairhealth.ErrUnknownPatient), errors.Is(err, phr.ErrUnknownPatient):
		return CodeUnknownPatient
	case errors.Is(err, fairhealth.ErrEmptyGroup):
		return CodeEmptyGroup
	case errors.Is(err, fairhealth.ErrBadQuery), errors.Is(err, fairhealth.ErrBadConfig),
		errors.Is(err, fairhealth.ErrTooManyCombinations):
		// ErrTooManyCombinations is client-induced: the requested brute
		// m/z combination exceeds the enumeration cap.
		return CodeInvalidQuery
	case errors.Is(err, model.ErrRatingOutOfRange),
		errors.Is(err, phr.ErrInvalidProfile),
		errors.Is(err, ratings.ErrDuplicate),
		errors.Is(err, search.ErrDuplicateDoc):
		return CodeUnprocessable
	case errors.Is(err, ratings.ErrNotFound):
		return CodeNotFound
	case errors.Is(err, ratings.ErrEmptyID), errors.Is(err, search.ErrEmptyID):
		return CodeInvalidArgument
	case errors.As(err, &tooLarge):
		return CodePayloadTooLarge
	case errors.Is(err, context.DeadlineExceeded):
		return CodeTimeout
	default:
		return CodeInternal
	}
}

// errorInfo converts an error to its wire payload.
func errorInfo(err error) ErrorInfo {
	return ErrorInfo{Code: classify(err), Message: err.Error()}
}

// writeError emits the unified envelope with the mapped status. 5xx
// failures are logged; expected client errors are not.
func (s *Server) writeError(w http.ResponseWriter, r *http.Request, err error) {
	info := errorInfo(err)
	status := ErrorStatus[info.Code]
	if status >= http.StatusInternalServerError && r != nil {
		s.log.Printf("httpapi: %s %s -> %d (%s): %v", r.Method, r.URL.Path, status, info.Code, err)
	}
	s.writeJSON(w, status, ErrorBody{Error: info})
}
