(* The benchmark's own span buffer for the traced run.

   Spans are recorded around the calls the benchmark makes into each
   layer's public functions: name, start, end, parent span and the id of
   the benchmark operation they belong to.  They stay in memory until
   [write_chrome], which emits Chrome trace_event JSON (chrome://tracing,
   Perfetto) with each layer's total and self time under "otherData".
   [Thr_obs.Trace] is not used: the per-pivot simplex spans it would
   record overrun its fixed event ring on the ILP rows. *)

type span = {
  id : int;
  name : string;
  op : int;
  parent : int;  (** id of the enclosing span, -1 at the root *)
  start_us : float;
  mutable end_us : float;
}

let enabled = ref false
let spans : span list ref = ref []
let n_spans = ref 0
let stack : span list ref = ref []

let now_us () = Unix.gettimeofday () *. 1e6

let reset () =
  spans := [];
  n_spans := 0;
  stack := []

(* [with_ name ~op f] runs [f] in a span; when tracing is off it is just
   [f ()]. *)
let with_ name ~op f =
  if not !enabled then f ()
  else begin
    let parent = match !stack with s :: _ -> s.id | [] -> -1 in
    let s =
      { id = !n_spans; name; op; parent; start_us = now_us (); end_us = 0.0 }
    in
    incr n_spans;
    stack := s :: !stack;
    Fun.protect
      ~finally:(fun () ->
        s.end_us <- now_us ();
        stack := List.tl !stack;
        spans := s :: !spans)
      f
  end

(* [timed name ~op f] is [with_] that also returns the call's wall time in
   milliseconds, measured whether or not tracing is on. *)
let timed name ~op f =
  let t0 = Unix.gettimeofday () in
  let r = with_ name ~op f in
  (r, (Unix.gettimeofday () -. t0) *. 1000.0)

let dur s = s.end_us -. s.start_us

(* per span: its duration minus the part its direct children cover
   (children never overlap: the benchmark is single-threaded) *)
let self_times () =
  let child = Hashtbl.create 1024 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        Hashtbl.replace child s.parent
          (dur s +. Option.value ~default:0.0 (Hashtbl.find_opt child s.parent)))
    !spans;
  List.map
    (fun s ->
      (s, dur s -. Option.value ~default:0.0 (Hashtbl.find_opt child s.id)))
    !spans

(* (name, count, total µs, self µs) per span name, sorted by self time *)
let by_layer () =
  let tbl = Hashtbl.create 64 in
  List.iter
    (fun (s, self) ->
      let n, total, self' =
        Option.value ~default:(0, 0.0, 0.0) (Hashtbl.find_opt tbl s.name)
      in
      Hashtbl.replace tbl s.name (n + 1, total +. dur s, self' +. self))
    (self_times ());
  Hashtbl.fold (fun name (n, t, s) acc -> (name, n, t, s) :: acc) tbl []
  |> List.sort (fun (_, _, _, a) (_, _, _, b) -> compare b a)

let write_chrome path =
  let module J = Thr_util.Json in
  let events =
    List.rev_map
      (fun (s, self) ->
        J.Obj
          [ ("name", J.String s.name);
            ("ph", J.String "X");
            ("ts", J.Float s.start_us);
            ("dur", J.Float (dur s));
            ("pid", J.Int 1);
            ("tid", J.Int 1);
            ( "args",
              J.Obj
                [ ("id", J.Int s.id);
                  ("parent", J.Int s.parent);
                  ("op", J.Int s.op);
                  ("self_us", J.Float self) ] ) ])
      (self_times ())
  in
  let layers =
    List.map
      (fun (name, n, total, self) ->
        ( name,
          J.Obj
            [ ("count", J.Int n);
              ("total_ms", J.Float (total /. 1000.0));
              ("self_ms", J.Float (self /. 1000.0)) ] ))
      (by_layer ())
  in
  let doc =
    J.Obj
      [ ("traceEvents", J.List events);
        ("displayTimeUnit", J.String "ms");
        ("otherData", J.Obj [ ("self_time_by_layer", J.Obj layers) ]) ]
  in
  let oc = open_out path in
  output_string oc (J.to_string doc);
  output_char oc '\n';
  close_out oc
