module Json = Thr_util.Json

type counter = { c_val : int Atomic.t }

type histogram = {
  bounds : float array; (* strictly increasing, finite *)
  buckets : int Atomic.t array; (* length bounds + 1: last is +Inf *)
  h_count : int Atomic.t;
  h_sum : float Atomic.t;
}

type metric = Counter of counter | Histogram of histogram

let registry : (string, metric) Hashtbl.t = Hashtbl.create 32
let reg_mutex = Mutex.create ()

let canonical name =
  if name = "" then invalid_arg "Metrics: empty name";
  let mapped =
    String.map
      (fun c ->
        match c with
        | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | ':' -> c
        | '.' | '-' | ' ' -> '_'
        | c -> invalid_arg (Printf.sprintf "Metrics: bad character %C in %S" c name))
      name
  in
  (match mapped.[0] with
  | '0' .. '9' -> invalid_arg ("Metrics: name starts with a digit: " ^ name)
  | _ -> ());
  mapped

let register name make cast kind =
  let name = canonical name in
  Mutex.protect reg_mutex (fun () ->
      match Hashtbl.find_opt registry name with
      | Some m -> (
          match cast m with
          | Some x -> x
          | None ->
              invalid_arg
                (Printf.sprintf "Metrics: %s already registered with another type (wanted %s)"
                   name kind))
      | None ->
          let x, m = make () in
          Hashtbl.replace registry name m;
          x)

let counter name =
  register name
    (fun () ->
      let c = { c_val = Atomic.make 0 } in
      (c, Counter c))
    (function Counter c -> Some c | _ -> None)
    "counter"

let incr c = Atomic.incr c.c_val
let add c n = ignore (Atomic.fetch_and_add c.c_val n)
let counter_value c = Atomic.get c.c_val

(* millisecond-latency scale by default *)
let default_buckets =
  [| 0.25; 0.5; 1.; 2.5; 5.; 10.; 25.; 50.; 100.; 250.; 500.; 1000.; 2500.; 5000.; 10000. |]

(* CAS retry loop: [Atomic.get] hands us the one boxed float the cell
   currently holds, so comparing it back by physical equality is exact *)
let rec atomic_add_float a x =
  let old = Atomic.get a in
  if not (Atomic.compare_and_set a old (old +. x)) then atomic_add_float a x

let histogram ?(buckets = default_buckets) name =
  Array.iteri
    (fun i b ->
      if not (Float.is_finite b) then
        invalid_arg ("Metrics.histogram: non-finite bucket in " ^ name);
      if i > 0 && b <= buckets.(i - 1) then
        invalid_arg ("Metrics.histogram: buckets not increasing in " ^ name))
    buckets;
  register name
    (fun () ->
      let h =
        {
          bounds = Array.copy buckets;
          buckets = Array.init (Array.length buckets + 1) (fun _ -> Atomic.make 0);
          h_count = Atomic.make 0;
          h_sum = Atomic.make 0.0;
        }
      in
      (h, Histogram h))
    (function Histogram h -> Some h | _ -> None)
    "histogram"

let observe h v =
  let n = Array.length h.bounds in
  let rec idx i = if i >= n || v <= h.bounds.(i) then i else idx (i + 1) in
  Atomic.incr h.buckets.(idx 0);
  Atomic.incr h.h_count;
  atomic_add_float h.h_sum v

let histogram_count h = Atomic.get h.h_count
let histogram_sum h = Atomic.get h.h_sum

let bucket_counts h =
  List.init
    (Array.length h.buckets)
    (fun i ->
      let bound =
        if i < Array.length h.bounds then h.bounds.(i) else infinity
      in
      (bound, Atomic.get h.buckets.(i)))

let sorted_metrics () =
  Mutex.protect reg_mutex (fun () ->
      Hashtbl.fold (fun name m acc -> (name, m) :: acc) registry [])
  |> List.sort (fun (a, _) (b, _) -> compare a b)

let snapshot () =
  List.concat_map
    (fun (name, m) ->
      match m with
      | Counter c -> [ (name, float_of_int (counter_value c)) ]
      | Histogram h ->
          [
            (name ^ "_count", float_of_int (histogram_count h));
            (name ^ "_sum", histogram_sum h);
          ])
    (sorted_metrics ())

let le_label b = if b = infinity then "+Inf" else Printf.sprintf "%g" b

let to_prometheus () =
  let buf = Buffer.create 512 in
  List.iter
    (fun (name, m) ->
      match m with
      | Counter c ->
          Printf.bprintf buf "# TYPE %s counter\n%s %d\n" name name
            (counter_value c)
      | Histogram h ->
          Printf.bprintf buf "# TYPE %s histogram\n" name;
          let cum = ref 0 in
          List.iter
            (fun (bound, n) ->
              cum := !cum + n;
              Printf.bprintf buf "%s_bucket{le=\"%s\"} %d\n" name
                (le_label bound) !cum)
            (bucket_counts h);
          Printf.bprintf buf "%s_sum %g\n" name (histogram_sum h);
          Printf.bprintf buf "%s_count %d\n" name (histogram_count h))
    (sorted_metrics ());
  Buffer.contents buf

let to_json () =
  Json.Obj
    (List.map
       (fun (name, m) ->
         match m with
         | Counter c -> (name, Json.Int (counter_value c))
         | Histogram h ->
             ( name,
               Json.Obj
                 [
                   ("count", Json.Int (histogram_count h));
                   ("sum", Json.Float (histogram_sum h));
                   ( "buckets",
                     Json.List
                       (List.map
                          (fun (bound, n) ->
                            Json.Obj
                              [
                                ( "le",
                                  if bound = infinity then Json.String "+Inf"
                                  else Json.Float bound );
                                ("n", Json.Int n);
                              ])
                          (bucket_counts h)) );
                 ] ))
       (sorted_metrics ()))

let reset () =
  Mutex.protect reg_mutex (fun () ->
      Hashtbl.iter
        (fun _ m ->
          match m with
          | Counter c -> Atomic.set c.c_val 0
          | Histogram h ->
              Array.iter (fun b -> Atomic.set b 0) h.buckets;
              Atomic.set h.h_count 0;
              Atomic.set h.h_sum 0.0)
        registry)
