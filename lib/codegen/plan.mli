(** CAvA backend, part 1: compile a refined specification into an
    executable {e marshalling plan}.

    The plan is the semantic content of the code CAvA would generate:
    for every API function it fixes argument directions and byte counts,
    the synchrony decision, the record/replay class and resource-usage
    estimates.  AvA's API-agnostic runtime is driven entirely by this
    table — nothing in it knows OpenCL from MVNC from QAT. *)

open Ava_spec.Ast

type arg_expr
(** A spec expression (buffer length or resource estimate) compiled
    against its function's parameter list: every parameter name is
    resolved to the position of a scalar parameter, so evaluating it
    reads the call's arguments by position.  A name that is unknown or
    not scalar never binds. *)

(** What the generated stub does with one parameter. *)
type arg_action =
  | Pass_scalar  (** by-value integer/float *)
  | Pass_handle  (** opaque handle forwarded verbatim *)
  | Copy_in_buffer of { len : arg_expr; elem_size : int }
  | Alloc_out_buffer of { len : arg_expr; elem_size : int }
  | Copy_in_out_buffer of { len : arg_expr; elem_size : int }
  | In_element  (** single-element input pointer *)
  | Out_element of { allocates : bool }
  | In_out_element
  | Pass_callback  (** guest callback id; the server upcalls through it *)
  | In_struct of int  (** by-value struct input; field count *)
  | Out_struct of int  (** struct output; field count *)

type sync_plan =
  | Always_sync
  | Always_async
  | Sync_when_eq of { sp_arg : int; sp_value : int }
      (** sync when the scalar argument at position [sp_arg] equals
          [sp_value]; a condition on a name that is not a scalar
          parameter compiles to [Always_sync] *)
  | Sync_on_completion of { sp_key : string }
      (** forwarded synchronously; the reply is withheld until work
          ordered before the named handle (event/stream) completes *)

type call_plan = {
  cp_name : string;
  cp_sync : sync_plan;
  cp_stream : string option;
      (** [ava_stream] ordering key: the handle parameter whose queue
          orders this call's server-side execution *)
  cp_params : (string * arg_action) list;
  cp_record : record_class;
  cp_resources : (string * arg_expr) list;
  cp_dealloc_params : string list;
      (** parameters whose handle this call deallocates *)
  cp_target_param : string option;
      (** the parameter denoting the object this call modifies *)
}

type t
(** A compiled plan is immutable: no function mutates it after
    {!compile}, and no field of the {!Ava_spec.Ast} it is built from is
    mutable.  One plan may therefore be shared read-only by any number
    of hosts, routers and servers. *)

val compile : api_spec -> (t, string) result
(** Fails on unresolved parameter kinds or unknown constants in
    synchrony conditions (i.e. on unrefined specs). *)

val find : t -> string -> call_plan option
val function_count : t -> int
(** [test_codegen] and [test_simqa] check every spec function is planned. *)

val api : t -> string

(** {1 Runtime queries}

    Driven by one call's arguments, read by position: [to_int] gives an
    argument's integer value, or [None] when it has none (that parameter
    is then unbound).  A vector whose length differs from the plan's
    parameter count binds nothing. *)

val has_outputs : call_plan -> bool
(** Does the call produce anything the caller could observe? *)

val is_sync : call_plan -> to_int:('a -> int option) -> 'a list -> bool
(** Synchrony decision for one concrete invocation; an unbound condition
    parameter conservatively forces sync.  [Always_*] plans read no
    argument. *)

val resource_estimate :
  call_plan -> to_int:('a -> int option) -> 'a list -> string -> int option
(** The named resource estimate for one invocation, if declared.  It is
    clamped at 0; an unbound parameter or a zero divisor makes it 0.
    [test_codegen] compares it with the by-name reference evaluator. *)

val call_cost : call_plan -> to_int:('a -> int option) -> 'a list -> float
(** The cost of one invocation in WFQ units, which the router charges
    to the caller's flow and the server's watchdog turns into a time
    budget: the [device_time] estimate, else [bus_bytes / 64], else 1;
    never below 1. *)
