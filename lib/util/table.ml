(* ASCII rendering of tables and simple bar charts.

   The bench harness regenerates every table and figure of the paper as
   text; this module is the shared renderer. *)

type align = Left | Right

type t = {
  title : string;
  header : string list;
  aligns : align list;
  mutable rows : string list list; (* reversed *)
}

let create ~title ~header ?aligns () =
  let aligns =
    match aligns with
    | Some a ->
      if List.length a <> List.length header then invalid_arg "Table.create: aligns length";
      a
    | None -> List.map (fun _ -> Right) header
  in
  { title; header; aligns; rows = [] }

let add_row t row =
  if List.length row <> List.length t.header then invalid_arg "Table.add_row: width mismatch";
  t.rows <- row :: t.rows

let pad align width s =
  let n = String.length s in
  if n >= width then s
  else
    match align with
    | Left -> s ^ String.make (width - n) ' '
    | Right -> String.make (width - n) ' ' ^ s

let render t =
  let rows = List.rev t.rows in
  let all = t.header :: rows in
  let ncols = List.length t.header in
  let widths = Array.make ncols 0 in
  List.iter
    (fun row -> List.iteri (fun i cell -> widths.(i) <- max widths.(i) (String.length cell)) row)
    all;
  let sep =
    "+" ^ String.concat "+" (Array.to_list (Array.map (fun w -> String.make (w + 2) '-') widths)) ^ "+"
  in
  let render_row row =
    let cells =
      List.mapi
        (fun i cell ->
          let align = List.nth t.aligns i in
          " " ^ pad align widths.(i) cell ^ " ")
        row
    in
    "|" ^ String.concat "|" cells ^ "|"
  in
  let buf = Buffer.create 256 in
  Buffer.add_string buf ("== " ^ t.title ^ " ==\n");
  Buffer.add_string buf (sep ^ "\n");
  Buffer.add_string buf (render_row t.header ^ "\n");
  Buffer.add_string buf (sep ^ "\n");
  List.iter (fun row -> Buffer.add_string buf (render_row row ^ "\n")) rows;
  Buffer.add_string buf (sep ^ "\n");
  Buffer.contents buf

let print t = print_string (render t)

(* Horizontal bar chart: one labelled bar per (label, value). *)
let bar_chart ~title ~unit ?(width = 48) entries =
  let buf = Buffer.create 256 in
  Buffer.add_string buf ("== " ^ title ^ " ==\n");
  let vmax = List.fold_left (fun acc (_, v) -> max acc v) 0.0 entries in
  let lmax = List.fold_left (fun acc (l, _) -> max acc (String.length l)) 0 entries in
  List.iter
    (fun (label, v) ->
      let n =
        if vmax <= 0.0 then 0 else int_of_float (Float.round (v /. vmax *. Float.of_int width))
      in
      Buffer.add_string buf
        (Printf.sprintf "%-*s | %s %.3g %s\n" lmax label (String.make n '#') v unit))
    entries;
  Buffer.contents buf

let print_bar_chart ~title ~unit ?width entries =
  print_string (bar_chart ~title ~unit ?width entries)

let fmt_time seconds =
  if seconds < 1e-3 then Printf.sprintf "%.1fus" (seconds *. 1e6)
  else if seconds < 1.0 then Printf.sprintf "%.2fms" (seconds *. 1e3)
  else if seconds < 120.0 then Printf.sprintf "%.2fs" seconds
  else if seconds < 7200.0 then Printf.sprintf "%.1fmin" (seconds /. 60.0)
  else Printf.sprintf "%.1fh" (seconds /. 3600.0)

let fmt_float ?(digits = 2) v = Printf.sprintf "%.*f" digits v

let fmt_ratio v = Printf.sprintf "%.2fx" v

let fmt_bytes b =
  let fb = Float.of_int b in
  if b < 1024 then Printf.sprintf "%dB" b
  else if b < 1 lsl 20 then Printf.sprintf "%.1fKB" (fb /. 1024.0)
  else if b < 1 lsl 30 then Printf.sprintf "%.1fMB" (fb /. 1048576.0)
  else Printf.sprintf "%.2fGB" (fb /. 1073741824.0)
