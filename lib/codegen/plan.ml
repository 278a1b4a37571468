(* CAvA backend, part 1: compile a refined specification into an
   executable *marshalling plan*.

   The plan is the semantic content of the code CAvA would generate: for
   every API function it fixes argument directions and byte counts, the
   synchrony decision, the record/replay class and the resource-usage
   estimates.  AvA's API-agnostic runtime (see {!Ava_remoting}) is driven
   entirely by this table — nothing in the runtime knows OpenCL from
   MVNC. *)

open Ava_spec.Ast

(* A spec expression with every parameter name resolved to the position
   of a scalar parameter of its function; a name that is unknown or not
   scalar is [Unbound]. *)
type arg_expr =
  | Lit of int
  | Arg of int
  | Unbound
  | Add of arg_expr * arg_expr
  | Sub of arg_expr * arg_expr
  | Mul of arg_expr * arg_expr
  | Div of arg_expr * arg_expr

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
      (** parameters whose handle is deallocated by this call *)
  cp_target_param : string option;
      (** the parameter denoting the object this call modifies *)
}

type t = {
  plan_api : string;
  plans : (string, call_plan) Hashtbl.t;
  order : string list;
}

(* Position of the scalar parameter [name] among [params]; on a repeated
   name the last one wins, as in a by-name binding built left to right. *)
let scalar_position params name =
  let rec go i found = function
    | [] -> found
    | { p_name; p_kind = Scalar; _ } :: rest when String.equal p_name name ->
        go (i + 1) (Some i) rest
    | _ :: rest -> go (i + 1) found rest
  in
  go 0 None params

let rec resolve params : expr -> arg_expr = function
  | Const n -> Lit n
  | Param name -> (
      match scalar_position params name with
      | Some k -> Arg k
      | None -> Unbound)
  | Add (a, b) -> Add (resolve params a, resolve params b)
  | Sub (a, b) -> Sub (resolve params a, resolve params b)
  | Mul (a, b) -> Mul (resolve params a, resolve params b)
  | Div (a, b) -> Div (resolve params a, resolve params b)

let compile_param params p =
  let buffer len = resolve params len in
  match (p.p_kind, p.p_direction) with
  | Scalar, _ -> Ok Pass_scalar
  | Handle, _ -> Ok Pass_handle
  | Buffer { len; elem_size }, In ->
      Ok (Copy_in_buffer { len = buffer len; elem_size })
  | Buffer { len; elem_size }, Out ->
      Ok (Alloc_out_buffer { len = buffer len; elem_size })
  | Buffer { len; elem_size }, In_out ->
      Ok (Copy_in_out_buffer { len = buffer len; elem_size })
  | Element _, In -> Ok In_element
  | Element { allocates }, Out -> Ok (Out_element { allocates })
  | Element _, In_out -> Ok In_out_element
  | Callback, _ -> Ok Pass_callback
  | Struct_ptr { fields }, In -> Ok (In_struct (List.length fields))
  | Struct_ptr { fields }, (Out | In_out) ->
      Ok (Out_struct (List.length fields))
  | Unknown, _ ->
      Error
        (Printf.sprintf "parameter %S has unresolved kind; refine the spec"
           p.p_name)

(* A condition on a parameter that is not a scalar of the function can
   never be bound, so it forces sync on every call. *)
let compile_sync spec fn =
  let when_eq cond_param v =
    match scalar_position fn.f_params cond_param with
    | Some sp_arg -> Sync_when_eq { sp_arg; sp_value = v }
    | None -> Always_sync
  in
  match fn.f_sync with
  | Sync -> Ok Always_sync
  | Async -> Ok Always_async
  | Sync_on { sync_param } -> Ok (Sync_on_completion { sp_key = sync_param })
  | Sync_if { cond_param; cond_const } -> (
      match int_of_string_opt cond_const with
      | Some v -> Ok (when_eq cond_param v)
      | None -> (
          match find_constant spec cond_const with
          | Some v -> Ok (when_eq cond_param v)
          | None ->
              Error
                (Printf.sprintf "unknown constant %S in sync condition"
                   cond_const)))

let compile_fn spec fn =
  let rec params acc = function
    | [] -> Ok (List.rev acc)
    | p :: rest -> (
        match compile_param fn.f_params p with
        | Ok a -> params ((p.p_name, a) :: acc) rest
        | Error e -> Error (Printf.sprintf "%s: %s" fn.f_name e))
  in
  match params [] fn.f_params with
  | Error _ as e -> e
  | Ok cp_params -> (
      match compile_sync spec fn with
      | Error e -> Error (Printf.sprintf "%s: %s" fn.f_name e)
      | Ok cp_sync ->
          Ok
            {
              cp_name = fn.f_name;
              cp_sync;
              cp_stream = fn.f_stream;
              cp_params;
              cp_record = fn.f_record;
              cp_resources =
                List.map
                  (fun (name, e) -> (name, resolve fn.f_params e))
                  fn.f_resources;
              cp_dealloc_params =
                List.filter_map
                  (fun p -> if p.p_deallocates then Some p.p_name else None)
                  fn.f_params;
              cp_target_param =
                List.find_map
                  (fun p -> if p.p_target then Some p.p_name else None)
                  fn.f_params;
            })

let compile spec =
  let plans = Hashtbl.create 64 in
  let rec go = function
    | [] ->
        Ok
          {
            plan_api = spec.api_name;
            plans;
            order = List.map (fun f -> f.f_name) spec.fns;
          }
    | fn :: rest -> (
        match compile_fn spec fn with
        | Ok p ->
            Hashtbl.replace plans fn.f_name p;
            go rest
        | Error _ as e -> e)
  in
  go spec.fns

let find t name = Hashtbl.find_opt t.plans name
let function_count t = List.length t.order
let api t = t.plan_api

(* --- runtime queries (driven by the call's arguments, by position) ----- *)

(* An expression has no value: it reads an unbound argument or divides
   by zero. *)
exception No_value

(* The arguments a query may read: all of them when the vector has the
   plan's arity, none otherwise. *)
let bind plan args =
  if List.compare_lengths plan.cp_params args = 0 then args else []

let arg to_int args k =
  match args with
  | [] -> raise_notrace No_value
  | _ -> (
      match to_int (List.nth args k) with
      | Some v -> v
      | None -> raise_notrace No_value)

let rec eval to_int args = function
  | Lit n -> n
  | Arg k -> arg to_int args k
  | Unbound -> raise_notrace No_value
  | Add (a, b) -> eval to_int args a + eval to_int args b
  | Sub (a, b) -> eval to_int args a - eval to_int args b
  | Mul (a, b) -> eval to_int args a * eval to_int args b
  | Div (a, b) ->
      let x = eval to_int args a and y = eval to_int args b in
      if y = 0 then raise_notrace No_value else x / y

(* Does the call produce any output the caller could observe? *)
let has_outputs plan =
  List.exists
    (fun (_, action) ->
      match action with
      | Alloc_out_buffer _ | Copy_in_out_buffer _ | Out_element _
      | In_out_element | Out_struct _ ->
          true
      | Pass_scalar | Pass_handle | Pass_callback | In_element
      | Copy_in_buffer _ | In_struct _ ->
          false)
    plan.cp_params

let is_sync plan ~to_int args =
  match plan.cp_sync with
  | Always_sync | Sync_on_completion _ -> true
  | Always_async -> false
  | Sync_when_eq { sp_arg; sp_value } -> (
      (* conservative: an unbound condition forces sync *)
      try arg to_int (bind plan args) sp_arg = sp_value
      with No_value -> true)

let resource_estimate plan ~to_int args name =
  match List.assoc_opt name plan.cp_resources with
  | None -> None
  | Some e -> (
      try Some (Stdlib.max 0 (eval to_int (bind plan args) e))
      with No_value -> Some 0)

let call_cost plan ~to_int args =
  match resource_estimate plan ~to_int args "device_time" with
  | Some c -> float_of_int (Stdlib.max 1 c)
  | None -> (
      match resource_estimate plan ~to_int args "bus_bytes" with
      | Some b -> float_of_int (Stdlib.max 1 (b / 64))
      | None -> 1.0)
