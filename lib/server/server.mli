(** ECO-as-a-service: the long-lived [eco_cli serve] daemon.

    The daemon accepts solve/batch/stats/shutdown requests over the
    length-prefixed JSON protocol ({!Protocol}, documented in
    [PROTOCOL.md]), schedules solve jobs onto a fixed {!Pool} of worker
    domains, and keeps two cross-request caches alive between requests:

    - an {e outcome cache} — rendered solve results keyed by the
      structural fingerprint of (instance, options), so replaying a
      request the daemon has already answered returns the byte-identical
      result without solving;
    - a {e cone cache} — decisive CEC verdicts keyed by the structural
      fingerprint of the two cone managers, installed as the
      process-global {!Cec.memo} so even {e fresh} solves reuse
      equivalence verdicts proved for earlier requests.

    Both caches are collision-checked (see {!Fingerprint} and {!Cache})
    and the outcome cache is protected by a sampled correctness guard:
    every [guard_period]-th hit is re-solved with certification
    ([lib/cert]) and compared; a poisoned entry is evicted, reported in
    [cache.guard_failed], and the fresh result returned instead.

    Robustness contract (exercised by [test/test_server.ml]): malformed
    frames and requests are answered with protocol errors and never kill
    a worker; per-request deadlines ({!Deadline}) reject jobs whose
    budget elapsed while queued; shutdown drains in-flight jobs before
    the process exits; the caches' entry/byte caps bound idle memory. *)

module Jsonx = Jsonx
module Protocol = Protocol
module Request = Request
module Fingerprint = Fingerprint
module Client = Client

type config = {
  jobs : int;  (** worker domains for solve/batch jobs (>= 1) *)
  cache_entries : int;  (** outcome-cache entry cap *)
  cache_bytes : int;  (** outcome-cache byte cap — the idle-memory bound *)
  guard_period : int;  (** re-certify every n-th cache hit; 0 disables *)
  max_frame : int;  (** protocol frame cap in bytes *)
}

val default_config : config
(** 1 worker, 256 entries / 64 MiB / guard every 16th hit, 8 MiB
    frames.  Both caches are always on; a request opts out of the
    outcome cache with its [no_cache] option, and a [certify] request
    bypasses the cone cache. *)

type t

val create : config -> t
(** Builds the server state (caches, counters) and installs the cone
    cache as the process-global CEC memo.  No socket is opened — {!serve} does
    that, and the synchronous entry points below work without one. *)

val process : t -> deadline:Deadline.t -> Request.envelope -> string
(** Synchronously executes one parsed request and returns the response
    payload.  This is the exact function the daemon's workers run; tests
    drive it directly to exercise scheduling-independent behaviour
    (caching, guards, deadlines, validation) deterministically. *)

val handle_payload : t -> string -> string
(** [parse] + {!process} for one frame payload — the full
    request-in/response-out path minus the socket. *)

val serve : t -> Protocol.address -> unit
(** Binds the address and runs the accept/schedule/respond event loop
    until a [shutdown] request (or {!stop}) arrives, then drains
    in-flight jobs, flushes pending responses and returns.  Installs no
    signal handlers — the CLI wrapper does that via {!stop}.  A stale
    Unix socket file at the same path is replaced. *)

val stop : t -> unit
(** Asks a running {!serve} loop to begin draining; safe to call from
    another domain or a signal handler. *)

val draining : t -> bool

val outcome_cache : t -> string Cache.t
(** The outcome cache — exposed for the cache-poisoning guard test and
    the stats op; treat as read-mostly. *)

(**/**)

module For_tests : sig
  val fail_next_job : t -> unit
  (** Makes the next solve job raise after validation — the
      deterministic trigger for the [internal] error path. *)
end
