(** Intrapartition communication objects: buffers, blackboards, semaphores
    and events (ARINC 653 Part 1).

    These objects live entirely inside one partition's containment domain;
    the APEX layer of the AIR core calls into them, and they in turn block
    and wake processes through the partition's {!Kernel}. Blocking calls
    return [`Blocked] — the caller (the script interpreter) re-issues no
    action; the kernel wakes the process when the condition is met or the
    timeout expires, and delivered messages are picked up from the process
    mailbox with {!take_delivery}. *)

open Air_sim

type discipline =
  | Fifo      (** Waiters served in blocking order. *)
  | Priority  (** Waiters served by current priority, FIFO among equals. *)

val pp_discipline : Format.formatter -> discipline -> unit

type t

val create : Kernel.t -> t

(** {1 Object creation} *)

type create_error =
  | Already_exists of string
  | Bad_parameter of string

val create_semaphore :
  t ->
  name:string ->
  initial:int ->
  maximum:int ->
  discipline ->
  (unit, create_error) result

val create_event : t -> name:string -> (unit, create_error) result

val create_blackboard :
  t -> name:string -> max_message_size:int -> (unit, create_error) result

val create_buffer :
  t ->
  name:string ->
  depth:int ->
  max_message_size:int ->
  discipline ->
  (unit, create_error) result

(** {1 Operations}

    Common outcome conventions: [`Blocked] means the calling process has
    been moved to the waiting state by the kernel; [`Unavailable] is the
    polling outcome (timeout = 0 semantics decided by the APEX layer);
    [`No_such_object] maps to APEX INVALID_CONFIG. *)

type outcome =
  [ `Done
  | `Blocked
  | `Unavailable
  | `No_such_object
  | `Message_too_large ]

val pp_outcome : Format.formatter -> outcome -> unit

val wait_semaphore :
  t -> now:Time.t -> process:int -> name:string -> timeout:Time.t -> outcome

val signal_semaphore : t -> now:Time.t -> name:string -> outcome
(** [`Unavailable] when the count is already at its maximum. *)

val semaphore_value : t -> name:string -> int option

val wait_event :
  t -> now:Time.t -> process:int -> name:string -> timeout:Time.t -> outcome

val set_event : t -> now:Time.t -> name:string -> outcome
(** Wakes every process waiting on the event. *)

val reset_event : t -> name:string -> outcome

val event_is_up : t -> name:string -> bool option

val display_blackboard :
  t -> now:Time.t -> name:string -> bytes -> outcome
(** Overwrites the message and wakes all processes waiting to read. *)

val clear_blackboard : t -> name:string -> outcome

val read_blackboard :
  t ->
  now:Time.t ->
  process:int ->
  name:string ->
  timeout:Time.t ->
  [ outcome | `Read of bytes ]

val send_buffer :
  t ->
  now:Time.t ->
  process:int ->
  name:string ->
  bytes ->
  timeout:Time.t ->
  outcome
(** If readers wait, the message is handed to the longest-waiting (or
    highest-priority) one directly; otherwise it is enqueued; a full buffer
    blocks the sender, whose message is delivered when space frees. *)

val receive_buffer :
  t ->
  now:Time.t ->
  process:int ->
  name:string ->
  timeout:Time.t ->
  [ outcome | `Read of bytes ]

val buffer_occupancy : t -> name:string -> int option

val take_delivery : t -> process:int -> bytes option
(** Message delivered to the process while it was blocked (buffer receive
    or blackboard read satisfied by a later send/display). Reading clears
    the mailbox. *)

val deliver : t -> process:int -> bytes -> unit
(** Deposit a message in the process' mailbox — used by the system layer
    when a queuing-port message satisfies a blocked receiver. The bytes are
    copied. *)

val observe :
  t ->
  (string * int) list
  * (string * bool) list
  * (string * bytes option) list
  * (string * bytes list) list
  * bytes option list
  * (string * bytes) option list
(** The partition's intrapartition state as closure-free data, each object
    list sorted by name: semaphore counts, event flags, blackboard
    messages and buffer queues (oldest first); then, by process, the
    mailbox and the message a sender is blocked on ({!send_buffer}).
    Payloads are the objects' own bytes: read, never write them. For
    state observations ({!Air.Observe}). *)

val reset : t -> unit
(** Partition cold restart: drop every object and mailbox. *)

val clear_mailboxes : t -> unit
(** Partition warm restart: objects (and their contents) survive, but
    per-process delivery state is dropped. *)
