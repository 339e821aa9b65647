(** Combined-fault soak harness: churn a multi-tenant {!Hub} under
    simultaneous storage faults and network faults, then prove the run
    lost nothing.

    Per tenant, the harness:

    - drives [queries] registrations, [elements] stream elements (mostly
      as {!Frame.Batch} frames of [batch]), and churn
      (terminate + fresh register) through a dedicated client;
    - interposes {!Rts_resilience.Fault.wrap} on the first
      [faulty_incarnations] lives of the tenant's store, with
      PRNG-drawn crash points, torn tails, bit flips,
      crash-at-checkpoint, silent short writes (always armed one append
      before a crash, so the scanner-amputated record is resubmitted on
      recovery) and sticky {!Rts_resilience.Io.No_space};
    - optionally wedges tenants mid-run ({!Server.inject_wedge}) so the
      watchdog's stall detection restarts them too;
    - runs the whole deployment over a faulty network
      ({!Rts_net.Net_fault.spec} + {!Rts_net.Reliable} timers).

    Afterwards the {e oracle} is computed per tenant: scan the
    surviving WAL ({!Rts_resilience.Wal.scan} of the tenant's base dir)
    and replay it on a fresh, plain, fault-free engine of the same
    kind. The run passes iff, for every tenant:

    - the server's own maturity log is bit-identical to the oracle's;
    - the subscriber's received maturity stream is bit-identical too
      (accepted => durable => matured exactly once, never early,
      across every crash, wedge, restart and retransmission);
    - accepted ops = applied + benignly rejected, and the WAL holds
      exactly [applied] records. *)

open Rts_core

type config = {
  tenants : int;
  queries : int;  (** Initial registrations per tenant. *)
  elements : int;  (** Stream elements per tenant. *)
  batch : int;  (** Elements per {!Frame.Batch} ([1] = singleton frames). *)
  threshold : int;  (** Max maturity threshold drawn per query. *)
  churn : float;  (** Per-chunk probability of a terminate + register. *)
  dim : int;
  seed : int;  (** Master seed — the whole run replays from it. *)
  faulty_incarnations : int;  (** Fault-wrapped lives per tenant. *)
  crash_every : int;  (** Mean appends between drawn crash points. *)
  wedges : int;  (** Wedge injections spread across the run. *)
  net : Rts_net.Net_fault.spec;
  reliable : Rts_net.Reliable.config;
  server : Server.config;
}

val default : config
(** A small but fault-dense configuration: 3 tenants, combined
    crash + short-write + ENOSPC + net-fault pressure, tight queue so
    backpressure fires. *)

type tenant_report = {
  name : string;
  accepted : int;
  applied : int;
  rejected : int;  (** Benign engine rejections (churn races). *)
  wal_records : int;
  restarts : int;
  matured : int;
  log_ok : bool;  (** Server maturity log == oracle. *)
  sub_ok : bool;  (** Subscriber's received stream == oracle. *)
  acct_ok : bool;  (** accepted = applied + rejected; WAL = applied. *)
}

type report = {
  per_tenant : tenant_report list;
  crashes : int;
  restarts_total : int;
  client_retries : int;  (** {!Frame.Retry_after} rounds observed. *)
  overloads : int;  (** Typed {!Frame.Overloaded} refusals observed. *)
  net_retransmits : int;
  ok : bool;
      (** Every tenant's [log_ok && sub_ok && acct_ok], and — when
          [faulty_incarnations > 0] — at least one crash was actually
          exercised. *)
}

(** {2 Workload pieces}

    Shared with the replica soak ({!Rts_replica.Rsoak}), whose config
    record differs, hence the labelled arguments. *)

val mix : int -> string -> int -> int
(** [mix seed name incarnation]: a deterministic 30-bit seed, independent
    of [Hashtbl.hash] (not pinned across compilers; these seeds appear
    in CI). *)

val draw_plan : crash_every:int -> Rts_util.Prng.t -> Rts_resilience.Fault.plan
(** One store life's fault plan: a crash point within [2 * crash_every]
    appends, torn tail, bit flip, crash-at-checkpoint, a short write
    armed one append before the crash, and sticky ENOSPC, each drawn
    from the generator. *)

val tenant_name : int -> string

val script :
  seed:int ->
  dim:int ->
  queries:int ->
  elements:int ->
  batch:int ->
  threshold:int ->
  churn:float ->
  tenant_idx:int ->
  Frame.client list
(** One tenant's frames in send order: [queries] registrations, then
    [elements] elements in {!Frame.Batch} frames of [batch], with a
    terminate + register after a chunk with probability [churn]. *)

val run : ?progress:(string -> unit) -> make:(dim:int -> Engine.t) -> config -> report
(** Deterministic: same [config] (and engine kind) — same report. *)

val pp_report : Format.formatter -> report -> unit
