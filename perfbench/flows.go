package main

// The flow files the workloads save to serve. Every source reads only
// generated inputs: the tickets file the benchmark writes into serve's
// -data directory, or the payloads it uploads with PUT .../data/{file}.

// ticketsFlow is the rerun dashboard: a filter feeding two groupbys over
// a file: source. The filter's observed selectivity (about one half)
// lets the planner push it into the CSV decode once history exists.
const ticketsFlow = `
D:
  tickets: [ticket_id, created, severity, category, summary, resolved_days]
  severe: [ticket_id, created, severity, category, summary, resolved_days]

D.tickets:
  source: tickets.csv
  format: csv

F:
  D.severe: D.tickets | T.severe
  +D.by_category: D.severe | T.by_category
  +D.by_day: D.severe | T.by_day

T:
  severe:
    type: filter_by
    filter_expression: severity >= 3
  by_category:
    type: groupby
    groupby: [category]
    aggregates:
      - operator: sum
        apply_on: resolved_days
        out_field: days
  by_day:
    type: groupby
    groupby: [created]
`

// processingFlow is the paper's section 3.7 data-processing dashboard
// (Appendix A.1, as in examples/ipl) with its mem: sources read from
// uploaded files instead.
const processingFlow = `D:
  ipl_tweets: [postedTime, body, location]
  players_tweets: [date, player, count]
  teams_tweets: [date, team, count]
  tagcloud_tweets_raw: [date, word, count]
  tagcloud_tweets: [date, word, count]
  dim_teams: [team_number, team, team_fullName, sort_order, color, noOfTweets]
  team_tweets: [date, team, team_fullName, sort_order, color, noOfTweets]
  tm_rgn_raw_cnt: [date, team, state, count]

D.ipl_tweets:
  source: data:tweets.csv
  format: csv

D.dim_teams:
  source: data:dim_teams.csv
  format: csv

F:
  D.players_tweets: D.ipl_tweets | T.players_pipeline | T.players_count
  D.teams_tweets: D.ipl_tweets | T.teams_pipeline | T.teams_count
  D.tm_rgn_raw_cnt: D.ipl_tweets | T.teams_pipeline_region | T.teams_regions_count
  D.tagcloud_tweets_raw: D.ipl_tweets | T.word_date_extraction | T.words_count
  D.tagcloud_tweets: D.tagcloud_tweets_raw | T.topwords
  D.team_tweets: (D.teams_tweets, D.dim_teams) | T.join_dim_teams

  D.players_tweets:
    endpoint: true
    publish: players_tweets
  D.team_tweets:
    endpoint: true
    publish: team_tweets
  D.tagcloud_tweets:
    endpoint: true
    publish: tagcloud_tweets
  D.tm_rgn_raw_cnt:
    endpoint: true
    publish: team_region_tweets

T:
  players_pipeline:
    parallel: [T.norm_ipldate, T.extract_players]
  teams_pipeline:
    parallel: [T.norm_ipldate, T.extract_teams]
  teams_pipeline_region:
    parallel: [T.norm_ipldate, T.extract_location, T.extract_teams]
  word_date_extraction:
    parallel: [T.norm_ipldate, T.extract_words]
  norm_ipldate:
    type: map
    operator: date
    transform: postedTime
    input_format: 'E MMM dd HH:mm:ss Z yyyy'
    output_format: yyyy-MM-dd
    output: date
  extract_players:
    type: map
    operator: extract
    transform: body
    dict: players.txt
    output: player
  extract_teams:
    type: map
    operator: extract
    transform: body
    dict: teams.csv
    output: team
  extract_location:
    type: map
    operator: extract_location
    transform: location
    match: city
    country: IND
    dict: cities.ind.csv
    output: state
  extract_words:
    type: map
    operator: extract_words
    transform: body
    output: word
  players_count:
    type: groupby
    groupby: [date, player]
  teams_count:
    type: groupby
    groupby: [date, team]
  teams_regions_count:
    type: groupby
    groupby: [date, team, state]
  words_count:
    type: groupby
    groupby: [date, word]
  topwords:
    type: topn
    groupby: [date]
    orderby_column: [count DESC]
    limit: 20
  join_dim_teams:
    type: join
    left: teams_tweets by team
    right: dim_teams by team_fullName
    join_condition: left outer
    project:
      teams_tweets_date: date
      dim_teams_team: team
      teams_tweets_team: team_fullName
      dim_teams_sort_order: sort_order
      dim_teams_color: color
      teams_tweets_count: noOfTweets
`

// consumptionFlow is the section 3.7 "Clash of Titans" dashboard: widgets
// over the four objects processingFlow publishes.
const consumptionFlow = `L:
  description: Clash of Titans
  rows:
    - [span12: W.ipl_duration]
    - [span12: W.relative_teamtweets]
    - [span6: W.player_tweets, span6: W.word_tweets]

W:
  ipl_duration:
    type: Slider
    source: ['2013-05-02', '2013-05-27']
    static: true
    range: true
    slider_type: date

  relative_teamtweets:
    type: Streamgraph
    source: D.team_tweets | T.filter_by_date
    x: date
    y: noOfTweets
    serie: team
    color: color

  player_tweets:
    type: WordCloud
    source: D.players_tweets | T.filter_by_date | T.aggregate_by_player
    text: player
    size: noOfTweets
    show_tooltip: true

  word_tweets:
    type: WordCloud
    source: D.tagcloud_tweets | T.filter_by_date | T.aggregate_by_word
    text: word
    size: count
    show_tooltip: true

T:
  filter_by_date:
    type: filter_by
    filter_by: [date]
    filter_source: W.ipl_duration
  aggregate_by_player:
    type: groupby
    groupby: [player]
    aggregates:
      - operator: sum
        apply_on: count
        out_field: noOfTweets
  aggregate_by_word:
    type: groupby
    groupby: [word]
    aggregates:
      - operator: sum
        apply_on: count
        out_field: count
        orderby_aggregates: true
`

// viewerFlow is one interact connection's own copy of consumptionFlow,
// plus an endpoint for the JSON data API to serve.
const viewerFlow = consumptionFlow + `
D:
  player_totals: [player, noOfTweets]

F:
  +D.player_totals: D.players_tweets | T.aggregate_by_player
`
