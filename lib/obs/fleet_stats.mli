(** Progress counters for the parallel fleet engine ([Air_fleet]).

    One record per shard (group of modules advanced by one domain) plus a
    fleet-wide summary frame. The conservative windowed protocol has no
    explicit null messages — a window barrier {e is} the null message —
    so the analogue counted here is the {e null window}: a window in which
    a shard executed no tick and moved no message, i.e. pure
    synchronization overhead. Windows end at the earliest instant a send
    could arrive, so a one-domain fleet's null windows are mostly the
    catch-up windows that end each run. The counters are filled by the
    fleet engine; this module only holds and renders them (text summary
    and JSON, schema ["air-fleet-stats/1"]). *)

type shard = {
  sh_id : int;
  sh_modules : int;  (** Modules homed on this shard. *)
  mutable sh_windows : int;  (** Windows participated in. *)
  mutable sh_null_windows : int;
      (** Windows with zero executed ticks and no traffic — pure horizon
          grants (the null-message analogue of the CMB protocol): a
          shard none of whose modules had work in the window, or a
          run's last window, which only brings lagging modules up to
          date. *)
  mutable sh_stepped : int;  (** Ticks executed through per-tick paths. *)
  mutable sh_skipped : int;  (** Ticks collapsed by skip-ahead. *)
  mutable sh_sent : int;  (** Gateway messages buffered for replay. *)
  mutable sh_delivered : int;  (** Transfers injected into target ports. *)
  mutable sh_dropped : int;  (** Transfers lost to overflow or bad port. *)
  mutable sh_forced : int;
      (** Forced per-tick drains (after a delivery into a forwarding
          gateway, or a pending gateway found at a barrier). *)
  mutable sh_blocked_s : float;  (** Wall-clock seconds at barriers. *)
}

type t

val create : domains:int -> lookahead:int -> modules_per_shard:int array -> t
val shard : t -> int -> shard
val domains : t -> int
val windows : t -> int
val note_window : t -> unit
val note_replayed : t -> int -> unit
(** Count sends replayed onto the bus at a barrier. *)

val to_text : t -> string
(** Multi-line summary frame: fleet totals then one line per shard. *)

val to_json : t -> string
(** Schema ["air-fleet-stats/1"]. *)
