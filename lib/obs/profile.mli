(** Per-operator query profiler — EXPLAIN ANALYZE for the operator tree.

    Frames are recorded into a {!session}: one frame tree, installed
    either for the calling thread only ({!with_session}: one execution's
    frames, untouched by concurrent executions) or process-wide
    ({!enable}: every thread records into one tree, as [--profile] and
    [xmorph profile] use it).  A thread's own session shadows the
    process-wide one.

    Off by default and zero-cost when off: with no session live, every
    entry point is one atomic load and a branch, and performs no
    allocation (instrumented hot paths guard on {!profiling} and use the
    allocation-free {!enter}/{!exit} pair; {!op} is for cold sites).

    While recording, each instrumented operator evaluation is charged to
    a {!frame} found (or created) by name under the innermost open frame
    — so repeated evaluations of the same operator aggregate into one
    node with a call count, and the frame tree mirrors the operator
    tree. *)

type frame = {
  name : string;
  mutable calls : int;
  mutable total_us : float;  (** cumulative: includes time in children *)
  mutable child_us : float;  (** time attributed to child frames *)
  mutable in_count : int;
  mutable out_count : int;
  mutable pairs : int;  (** closest pairs / join attachments *)
  mutable blocks_read : int;
  mutable blocks_written : int;
  mutable children : frame list;  (** newest first; see {!ordered_children} *)
}

(** Open activation returned by {!enter}; pass it to {!exit}. *)
type token

(** One frame tree with its activation stack and its own I/O counters. *)
type session

(** [profiling ()] is true when a session records the calling thread:
    its own, or the process-wide one. *)
val profiling : unit -> bool

(** [session ()] is a fresh, empty, uninstalled session. *)
val session : unit -> session

(** [with_session s f] runs [f ()] with [s] installed for the calling
    thread only, and uninstalls it when [f] returns or raises.  Other
    threads are not recorded into [s], and do not see {!profiling}
    turn on. *)
val with_session : session -> (unit -> 'a) -> 'a

(** [session_roots s] is [s]'s root frames, oldest first. *)
val session_roots : session -> frame list

(** [session_json s] exports [s] as {!to_json} does. *)
val session_json : session -> Xmutil.Json.t

(** [enable ()] installs a fresh process-wide session. *)
val enable : unit -> unit

(** [disable ()] uninstalls the process-wide session; its tree remains
    readable through {!roots}, {!to_text} and {!to_json}. *)
val disable : unit -> unit

(** [reset ()] discards the process-wide session's frames, keeping the
    enabled state. *)
val reset : unit -> unit

(** [charge_read bytes] / [charge_write bytes] add store I/O to the
    calling thread's session, whose cumulative blocks feed per-frame
    block deltas.  [Store.Io_stats] calls them on every charge. *)
val charge_read : int -> unit

val charge_write : int -> unit

(** [enter name] opens an activation of operator [name] under the
    innermost open frame.  Allocation-free and O(1) when disabled. *)
val enter : string -> token

(** [exit ?in_count ?out_count tok] closes the activation: charges
    elapsed time and the block-I/O delta, bumps the call count, and adds
    the given node counts. *)
val exit : ?in_count:int -> ?out_count:int -> token -> unit

(** Attribute input/output node counts or closest-pair counts to the
    innermost open frame (for loops that accumulate mid-activation). *)
val add_in : int -> unit

val add_out : int -> unit
val add_pairs : int -> unit

(** [op name f] runs [f ()] inside an activation of [name]; closes it on
    exceptions too.  Closure-based: use only at cold call sites. *)
val op : string -> (unit -> 'a) -> 'a

(** Self time: total minus time spent in child frames, clamped at 0. *)
val self_us : frame -> float

(** The process-wide session's root frames, oldest first. *)
val roots : unit -> frame list

(** A frame's children, oldest first. *)
val ordered_children : frame -> frame list

(** [lookup path] walks [path] by frame name from the roots, e.g.
    [lookup ["compile"; "morph"]]. *)
val lookup : string list -> frame option

(** Annotated [Algebra.pp]-style indented tree: per node
    [calls= time= self= in= out= [pairs=] blocks=]. *)
val to_text : unit -> string

(** JSON export; parses back via [Xmutil.Json.of_string]. *)
val to_json : unit -> Xmutil.Json.t
